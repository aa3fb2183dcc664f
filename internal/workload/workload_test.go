package workload

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safetcp"
)

func ramKernel(t *testing.T) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&ramfs.FS{})
	if err := v.Mount(task, "/", "ramfs", vfs.MountData{}); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

func TestFSWorkloadRuns(t *testing.T) {
	v, task := ramKernel(t)
	w := NewFS(FSConfig{Seed: 1, Ops: 500, Mix: MetadataHeavyMix()})
	stats := w.Run(v, task)
	if stats.Ops == 0 || stats.Ops > 500 {
		t.Fatalf("ops = %d", stats.Ops)
	}
	// A metadata mix must exercise namespace ops.
	for _, kind := range []string{"create", "mkdir", "unlink", "rename"} {
		if stats.ByKind[kind] == 0 {
			t.Fatalf("mix never ran %s: %v", kind, stats.ByKind)
		}
	}
	// The workload's own model should be consistent with the FS.
	ents, err := v.ReadDir(task, "/")
	if err != kbase.EOK {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) == 0 && w.LiveFiles() > 0 {
		t.Fatalf("model says %d files, FS is empty", w.LiveFiles())
	}
}

func TestFSWorkloadDeterministic(t *testing.T) {
	run := func() string {
		v, task := ramKernel(t)
		w := NewFS(FSConfig{Seed: 42, Ops: 300})
		return w.Run(v, task).String()
	}
	if run() != run() {
		t.Fatalf("same seed produced different stats")
	}
	v, task := ramKernel(t)
	other := NewFS(FSConfig{Seed: 43, Ops: 300}).Run(v, task).String()
	if other == run() {
		t.Fatalf("different seeds identical")
	}
}

func TestFSWorkloadDataHeavyMovesBytes(t *testing.T) {
	v, task := ramKernel(t)
	stats := NewFS(FSConfig{Seed: 5, Ops: 400, Mix: DataHeavyMix()}).Run(v, task)
	if stats.BytesWritten == 0 {
		t.Fatalf("data-heavy mix wrote nothing: %s", stats)
	}
	if !strings.Contains(stats.String(), "written=") {
		t.Fatalf("stats render: %s", stats)
	}
}

// streamPair builds a connected legacy-TCP pair.
func streamPair(t *testing.T, seed uint64, loss float64) (*net.Sim, net.Stream, net.Stream) {
	t.Helper()
	sim := net.NewSim(seed)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: loss})
	l, _ := b.ListenTCP(80)
	c, _ := a.ConnectTCP(2, 80)
	var srv *net.Socket
	if !sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000) {
		t.Fatalf("handshake stalled")
	}
	return sim, c, srv
}

func TestBulkLegacy(t *testing.T) {
	sim, c, srv := streamPair(t, 1, 0.05)
	res := Bulk(sim, c, srv, 30000, 7, 100000)
	if !res.OK || !res.Integrity || res.Bytes != 30000 {
		t.Fatalf("bulk = %+v", res)
	}
}

// TestBulkSafeTCP drives the same workload over the modular safe
// transport — the module-swap experiment in miniature.
func TestBulkSafeTCP(t *testing.T) {
	sim := net.NewSim(3)
	ha := sim.AddHost(1)
	hb := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.05})
	a := safetcp.Attach(ha, nil)
	b := safetcp.Attach(hb, nil)
	l, _ := b.Listen(80)
	c, _ := a.Connect(2, 80)
	var srv *safetcp.Conn
	if !sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000) {
		t.Fatalf("handshake stalled")
	}
	res := Bulk(sim, c, srv, 30000, 7, 100000)
	if !res.OK || !res.Integrity {
		t.Fatalf("bulk over safetcp = %+v", res)
	}
}
