package safelinux

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
)

// TestKernelRegisterMetrics boots a kernel, drives I/O, and checks the
// unified metrics plane sees every wired subsystem move.
func TestKernelRegisterMetrics(t *testing.T) {
	k, err := New(Config{Seed: 11})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()

	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)

	fd, err := k.VFS.Open(k.Task, "/obs", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("open: %v", err)
	}
	if _, err := k.VFS.Write(k.Task, fd, []byte(strings.Repeat("x", 4096))); err != kbase.EOK {
		t.Fatalf("write: %v", err)
	}
	k.VFS.Close(fd)
	for i := 0; i < 5; i++ {
		if _, err := k.VFS.Stat(k.Task, "/obs"); err != kbase.EOK {
			t.Fatalf("stat: %v", err)
		}
	}

	if err := k.StreamRoundTrip(7000, []byte("ping")); err != kbase.EOK {
		t.Fatalf("legacy round trip: %v", err)
	}

	// The probes cover every registry counter kbench's perLayerMetrics
	// reads (cmd/kbench/trace.go): kbench is its own module, so a
	// renamed counter would read 0 there without failing a build.
	// moves marks the counters the I/O above must have bumped.
	type probe struct {
		sub, name string
		moves     bool
	}
	check := func(m *ktrace.Metrics, probes []probe) {
		t.Helper()
		for _, p := range probes {
			v, ok := m.Lookup(p.sub, p.name)
			if !ok {
				t.Errorf("metric %s.%s not registered", p.sub, p.name)
			} else if p.moves && v == 0 {
				t.Errorf("metric %s.%s = 0 after I/O", p.sub, p.name)
			}
		}
	}
	check(m, []probe{
		{"vfs", "dcache_hits", true}, {"vfs", "dcache_misses", false},
		{"journal", "commits", true}, {"journal", "blocks_logged", true},
		{"bufcache", "hits", true}, {"bufcache", "misses", false}, {"bufcache", "writeback", false},
		{"kio", "submitted", true}, {"kio", "batches", true},
		{"kio", "copies_avoided", false}, {"kio", "copies_performed", false},
		{"blockdev", "reads", false}, {"blockdev", "writes", true}, {"blockdev", "flushes", true},
		{"own", "live_cells", false},
		// The ownership checker is wired even when clean.
		{"own", "violations", false},
		{"net", "received", true}, {"net", "bad_packets", false}, {"net", "no_socket", false},
		{"net", "tx_errors", false}, {"net", "contained", false},
	})

	text := m.RenderText()
	if !strings.Contains(text, "blockdev.writes ") {
		t.Errorf("RenderText missing blockdev.writes:\n%s", text)
	}

	// After UpgradeTCP the safe endpoints join the plane.
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	if err := k.StreamRoundTrip(7001, []byte("ping")); err != kbase.EOK {
		t.Fatalf("safe round trip: %v", err)
	}
	m2 := ktrace.NewMetrics()
	k.RegisterMetrics(m2)
	check(m2, []probe{{"safetcp", "segments", true}, {"safetcp", "bad_segments", false}})
}

// TestBlockdevMetricsFollowRoot: the blockdev collector reads the
// device behind "/", so after UpgradeFS or HotSwap a pwrite+fsync
// moves blockdev.writes and blockdev.flushes — also through a
// registration made before the swap.
func TestBlockdevMetricsFollowRoot(t *testing.T) {
	syncWrite := func(t *testing.T, k *Kernel, m *ktrace.Metrics) {
		t.Helper()
		writes, _ := m.Lookup("blockdev", "writes")
		flushes, _ := m.Lookup("blockdev", "flushes")
		fd, err := k.VFS.Open(k.Task, "/dev-follow", vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("open: %v", err)
		}
		if _, err := k.VFS.Pwrite(k.Task, fd, []byte(strings.Repeat("d", 4096)), 0); err != kbase.EOK {
			t.Fatalf("pwrite: %v", err)
		}
		if err := k.VFS.Fsync(k.Task, fd); err != kbase.EOK {
			t.Fatalf("fsync: %v", err)
		}
		k.VFS.Close(fd)
		if w, _ := m.Lookup("blockdev", "writes"); w <= writes {
			t.Errorf("blockdev.writes %d -> %d across pwrite+fsync on safefs", writes, w)
		}
		if f, _ := m.Lookup("blockdev", "flushes"); f <= flushes {
			t.Errorf("blockdev.flushes %d -> %d across fsync on safefs", flushes, f)
		}
	}
	t.Run("UpgradeFS", func(t *testing.T) {
		k, err := New(Config{Seed: 13})
		if err != kbase.EOK {
			t.Fatalf("boot: %v", err)
		}
		defer k.Close()
		if err := k.UpgradeFS(); err != kbase.EOK {
			t.Fatalf("UpgradeFS: %v", err)
		}
		m := ktrace.NewMetrics()
		k.RegisterMetrics(m)
		syncWrite(t, k, m)
	})
	t.Run("HotSwap", func(t *testing.T) {
		k := bootCompartmented(t, Config{Seed: 14})
		m := ktrace.NewMetrics()
		k.RegisterMetrics(m)
		// A reader beside the swap: under -race, the collector's read
		// of the root device must not race the swap that moves it.
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					m.Lookup("blockdev", "writes")
				}
			}
		}()
		err := k.HotSwap("fs", safefs.Module{})
		close(stop)
		<-done
		if err != kbase.EOK {
			t.Fatalf("HotSwap(fs): %v", err)
		}
		syncWrite(t, k, m)
	})
}

// TestAttachFiltersKernelEvents is the whole-stack integration test of
// the verified-probe plane: a program attached to vfs:lookup filters
// dcache misses out of the ring while real workload drives the VFS.
func TestAttachFiltersKernelEvents(t *testing.T) {
	k, err := New(Config{Seed: 12})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()

	ring := ktrace.Buffer()
	ring.Reset()
	tp := ktrace.Lookup("vfs:lookup")
	if tp == nil {
		t.Fatal("vfs:lookup tracepoint not registered")
	}

	// Keep only dcache hits: a1 (ctx offset 24) != 0.
	prog, perr := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpLdCtx32, Dst: 0, Src: 0, Imm: 24},
		{Op: ebpflike.OpRet, Dst: 0},
	}, ktrace.EventCtxSize)
	if perr != nil {
		t.Fatalf("verify: %v", perr)
	}
	probe, kerr := ktrace.Attach(tp, prog)
	if kerr != kbase.EOK {
		t.Fatalf("attach: %v", kerr)
	}
	defer probe.Detach()

	// First touch misses the dcache, repeats hit it.
	if err := k.VFS.Mkdir(k.Task, "/probe"); err != kbase.EOK {
		t.Fatalf("mkdir: %v", err)
	}
	fd, err := k.VFS.Open(k.Task, "/probe/f", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("open: %v", err)
	}
	k.VFS.Close(fd)
	for i := 0; i < 20; i++ {
		if _, err := k.VFS.Stat(k.Task, "/probe/f"); err != kbase.EOK {
			t.Fatalf("stat: %v", err)
		}
	}

	if probe.Matched() == 0 {
		t.Fatal("probe matched no lookups")
	}
	if probe.Dropped() == 0 {
		t.Fatal("probe dropped no lookups (misses should be filtered)")
	}
	for _, e := range ring.Snapshot() {
		if e.Name == "vfs:lookup" && e.A1 == 0 {
			t.Fatalf("filtered dcache miss leaked into the ring: %+v", e)
		}
	}
	if tp.Filtered() == 0 {
		t.Fatal("tracepoint filtered counter did not move")
	}
}
