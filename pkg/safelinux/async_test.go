package safelinux

import (
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// TestKernelAsyncIO boots a kernel and drives file traffic through the
// full stack: VFS → extlike → journal (batched commit) → bufcache
// (batched writeback) → kio → blockdev. The tree it writes must read
// back, and the unmounted volume must pass fsck.
func TestKernelAsyncIO(t *testing.T) {
	k, err := New(Config{Seed: 11, CaptureOops: true})
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	defer k.Close()

	if err := k.VFS.Mkdir(k.Task, "/d"); err != kbase.EOK {
		t.Fatalf("Mkdir: %v", err)
	}
	for i := 0; i < 8; i++ {
		writeThrough(t, k.VFS, k.Task, fmt.Sprintf("/d/f%d", i), fmt.Sprintf("payload-%d", i))
	}
	if err := k.VFS.Unlink(k.Task, "/d/f7"); err != kbase.EOK {
		t.Fatalf("Unlink: %v", err)
	}
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	for i := 0; i < 7; i++ {
		path := fmt.Sprintf("/d/f%d", i)
		if got := readThrough(t, k.VFS, k.Task, path); got != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("%s = %q", path, got)
		}
	}
	if _, err := k.VFS.Open(k.Task, "/d/f7", vfs.ORdOnly); err != kbase.ENOENT {
		t.Fatalf("unlinked file open = %v, want ENOENT", err)
	}

	st := k.IOEngine().Stats()
	if st.Submitted == 0 || st.Completed == 0 {
		t.Fatalf("file traffic bypassed the engine: %+v", st)
	}
	if st.Barriers == 0 {
		t.Fatalf("journal commits issued no barriers: %+v", st)
	}

	// The engine shows up on the metrics plane.
	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)
	if v, ok := m.Lookup("kio", "completed"); !ok || v == 0 {
		t.Fatalf("kio metrics missing from the kernel metrics plane (completed=%d, ok=%v)", v, ok)
	}

	// No oopses, no ownership violations from the async plumbing.
	if evs := k.Recorder.Events(); len(evs) != 0 {
		t.Fatalf("async I/O oopsed: %v", evs)
	}
	if k.Checker.Count() != 0 {
		t.Fatalf("ownership violations: %v", k.Checker.Violations())
	}

	if err := k.VFS.Unmount(k.Task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	rep, ferr := extlike.Fsck(k.rootDev)
	if ferr != kbase.EOK {
		t.Fatalf("fsck: %v", ferr)
	}
	if !rep.Clean() {
		t.Fatalf("volume inconsistent:\n%s", rep.Summary())
	}
}
