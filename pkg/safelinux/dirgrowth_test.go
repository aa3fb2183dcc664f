package safelinux

import (
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// TestExtlikeDirectoryGrowthBounded fills one extlike directory until
// the file system refuses the next create. A create journals only the
// one directory block it edits, so the journal no longer bounds a
// directory: growth stops at the largest file the geometry maps, once
// no record has slack for another entry. The refusal must be a typed
// ENOSPC before anything is modified — no oops, every earlier entry
// still resolvable, and a clean fsck. It runs under both values of the
// deprecated Config.AsyncIO, which the kernel ignores: both take the
// one kio path and must stop at the same entry.
func TestExtlikeDirectoryGrowthBounded(t *testing.T) {
	full := map[bool]int{}
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("AsyncIO=%v", async), func(t *testing.T) {
			k, err := New(Config{Seed: 41, DiskBlocks: 16384, CaptureOops: true, AsyncIO: async})
			if err != kbase.EOK {
				t.Fatalf("New: %v", err)
			}
			defer k.Close()
			if err := k.VFS.Mkdir(k.Task, "/d"); err != kbase.EOK {
				t.Fatalf("Mkdir: %v", err)
			}
			n := 0
			for ; n < 3000; n++ {
				fd, err := k.VFS.Open(k.Task, fmt.Sprintf("/d/f%04d", n), vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					if err != kbase.ENOSPC {
						t.Fatalf("create %d: %v, want ENOSPC", n, err)
					}
					break
				}
				if err := k.VFS.Close(fd); err != kbase.EOK {
					t.Fatalf("close %d: %v", n, err)
				}
			}
			if n == 3000 {
				t.Fatal("directory grew without bound")
			}
			if evs := k.Recorder.Events(); len(evs) != 0 {
				t.Fatalf("oopses: %v", evs)
			}
			for i := 0; i < n; i++ {
				if _, err := k.VFS.Stat(k.Task, fmt.Sprintf("/d/f%04d", i)); err != kbase.EOK {
					t.Fatalf("entry %d of %d unresolvable: %v", i, n, err)
				}
			}
			// The volume itself is not full: other directories still grow.
			writeThrough(t, k.VFS, k.Task, "/other", "fits")
			if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
				t.Fatalf("SyncAll: %v", err)
			}
			if err := k.VFS.Unmount(k.Task, "/"); err != kbase.EOK {
				t.Fatalf("Unmount: %v", err)
			}
			rep, ferr := extlike.Fsck(k.rootDev)
			if ferr != kbase.EOK {
				t.Fatalf("fsck: %v", ferr)
			}
			if !rep.Clean() {
				t.Fatalf("volume inconsistent after %d creates:\n%s", n, rep.Summary())
			}
			t.Logf("directory full at %d entries", n)
			full[async] = n
		})
	}
	if a, b := full[false], full[true]; a != b {
		t.Fatalf("AsyncIO=false full at %d entries, AsyncIO=true at %d; the flag should be ignored", a, b)
	}
}
