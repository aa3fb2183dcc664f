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

// stacks builds each TCP stack on a host: the legacy socket layer, or
// safetcp attached through the modular interface.
var stacks = []struct {
	name string
	on   func(*net.Host) net.StreamStack
}{
	{"legacy", func(h *net.Host) net.StreamStack { return h }},
	{"safe", func(h *net.Host) net.StreamStack { return safetcp.Attach(h, nil) }},
}

// TestBulk drives the same workload over either transport: the
// module-swap experiment in miniature.
func TestBulk(t *testing.T) {
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			sim := net.NewSim(1)
			ha, hb := sim.AddHost(1), sim.AddHost(2)
			sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.05})
			a, b := st.on(ha), st.on(hb)
			l, _ := b.ListenStream(80)
			c, _ := a.DialStream(2, 80)
			var srv net.Stream
			if !sim.RunUntil(func() bool {
				if srv == nil {
					srv, _ = l.AcceptStream()
				}
				return srv != nil && c.Established()
			}, 5000) {
				t.Fatalf("handshake stalled")
			}
			res := Bulk(sim, c, srv, 30000, 7, 100000)
			if !res.OK || !res.Integrity || res.Bytes != 30000 {
				t.Fatalf("bulk = %+v", res)
			}
		})
	}
}
