package faultinject

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/vfs"
)

// barrierlessDisk is the journal's device with its flushes held back:
// each barrier records the writes issued before it (as the word
// "barrier") instead of making them durable, so every write of a
// commit is still pending when the test cuts power.
type barrierlessDisk struct {
	*blockdev.Device
	log      []string // block numbers written and barriers, in issue order
	barriers []int    // pending-write count at each barrier
}

func (d *barrierlessDisk) WriteOwned(block uint64, data []byte) kbase.Errno {
	d.log = append(d.log, fmt.Sprint(block))
	return d.Device.WriteOwned(block, data)
}

func (d *barrierlessDisk) Flush() kbase.Errno {
	d.log = append(d.log, "barrier")
	d.barriers = append(d.barriers, d.Device.PendingWrites())
	return kbase.EOK
}

// TestCommitCutPointSweep cuts power at every point of one journal
// commit. Transaction 1 commits and is not checkpointed; transaction 2
// logs three buffers and a revoke with all of its writes held
// pending. The device then crashes keeping each prefix of the pending
// writes, and, separately, each single write. After each crash a fresh
// mount recovers: transaction 1 always replays, and transaction 2's
// home blocks are all old or all new — new exactly when the kept
// prefix reaches its final barrier.
func TestCommitCutPointSweep(t *testing.T) {
	dev, cache, j, _ := asyncJournalRig(t)
	journalWrite(t, cache, j, 40, 0xC1)
	journalWrite(t, cache, j, 41, 0xC2)
	if err := j.CommitCtx(nil); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}

	disk := &barrierlessDisk{Device: dev}
	cache.SetEngine(kio.New(disk))
	h := j.Begin()
	if err := h.Revoke(39); err != kbase.EOK {
		t.Fatalf("Revoke: %v", err)
	}
	h.Stop()
	journalWrite(t, cache, j, 41, 0xD1)
	journalWrite(t, cache, j, 42, 0xD2)
	journalWrite(t, cache, j, 43, 0xD3)
	if err := j.CommitCtx(nil); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}

	// Transaction 1 took journal blocks 1-4, so transaction 2's
	// descriptor is block 5, its data 6-8, its revoke 9 and its commit
	// record 10. The one commit order: data, descriptor and revoke,
	// barrier, commit record, barrier.
	wantLog := []string{"6", "7", "8", "5", "9", "barrier", "10", "barrier"}
	if !slices.Equal(disk.log, wantLog) {
		t.Fatalf("commit issue order %v, want %v", disk.log, wantLog)
	}
	// Pending: transaction 2's six log writes and nothing else. A commit
	// writes no home block; transaction 1's commit flushed its own log.
	snap := dev.Snapshot()
	pending := snap.PendingCount()
	final := disk.barriers[len(disk.barriers)-1]
	if pending != 6 || final != 6 {
		t.Fatalf("pending %d, final barrier after %d writes; want 6 and 6", pending, final)
	}

	oldHome := map[uint64]byte{40: 0xC1, 41: 0xC2, 42: 0, 43: 0}
	newHome := map[uint64]byte{40: 0xC1, 41: 0xD1, 42: 0xD2, 43: 0xD3}
	crash := func(name string, keep map[int]bool, wantNew bool) {
		t.Helper()
		dev.Restore(snap)
		dev.CrashApplySubset(keep)
		// Remount: fresh cache and journal state over the crashed image.
		n, err := remount(dev).Recover()
		if err != kbase.EOK {
			t.Fatalf("%s: Recover: %v", name, err)
		}
		want, wantN := oldHome, 1
		if wantNew {
			want, wantN = newHome, 2
		}
		if n != wantN {
			t.Errorf("%s: replayed %d transactions, want %d", name, n, wantN)
		}
		raw := make([]byte, dev.BlockSize())
		for block, b := range want {
			if err := dev.Read(block, raw); err != kbase.EOK {
				t.Fatalf("%s: Read(%d): %v", name, block, err)
			}
			for i, got := range raw {
				if got != b {
					t.Errorf("%s: block %d byte %d = %#x, want %#x (new=%v)", name, block, i, got, b, wantNew)
					break
				}
			}
		}
	}
	for k := 0; k <= pending; k++ {
		keep := map[int]bool{}
		for i := 0; i < k; i++ {
			keep[i] = true
		}
		crash(fmt.Sprintf("prefix %d", k), keep, k >= final)
	}
	// One surviving write never carries a whole transaction.
	for i := 0; i < pending; i++ {
		crash(fmt.Sprintf("single %d", i), map[int]bool{i: true}, false)
	}
}

// mountExtlike mounts the extlike volume on dev (recovering its
// journal) on a fresh VFS.
func mountExtlike(t *testing.T, dev *blockdev.Device) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&extlike.FS{}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

// TestCheckpointCutPointSweep cuts power at every prefix of one
// checkpoint's writeback on an extlike volume. Before it, a run of
// fsynced writes and namespace ops (create, mkdir, unlink, renames)
// has committed, several of them logging the same directory, inode
// table and bitmap blocks, and none has been written home. The
// checkpoint writes each dirty block home once, then the journal
// superblock that moves the tail past those transactions. Every crash
// state must recover to the full committed state and fsck clean.
func TestCheckpointCutPointSweep(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 2048, BlockSize: 512, Rng: kbase.NewRng(11)})
	if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	v, task := mountExtlike(t, dev)
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	content := func(seed byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	put := func(path string, data []byte, off int64) {
		t.Helper()
		fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open(%s): %v", path, err)
		}
		if n, err := v.Pwrite(task, fd, data, off); err != kbase.EOK || n != len(data) {
			t.Fatalf("Pwrite(%s): %d, %v", path, n, err)
		}
		if err := v.Fsync(task, fd); err != kbase.EOK {
			t.Fatalf("Fsync(%s): %v", path, err)
		}
		v.Close(fd)
	}
	must := func(what string, err kbase.Errno) {
		t.Helper()
		if err != kbase.EOK {
			t.Fatalf("%s: %v", what, err)
		}
	}
	put("/a", content(1, 700), 0)
	put("/b", content(2, 100), 0)
	put("/c", content(3, 1500), 0)
	must("Mkdir", v.Mkdir(task, "/dir"))
	put("/dir/x", content(4, 300), 0)
	put("/dir/x", content(5, 200), 100)
	must("Unlink", v.Unlink(task, "/b"))
	must("Rename", v.Rename(task, "/c", "/dir/c2"))
	must("Rename", v.Rename(task, "/a", "/e"))
	put("/empty", nil, 0)
	x := content(4, 300)
	copy(x[100:], content(5, 200))
	want := map[string][]byte{"/e": content(1, 700), "/dir/c2": content(3, 1500), "/dir/x": x, "/empty": {}}
	gone := []string{"/a", "/b", "/c"}

	if n := dev.PendingWrites(); n != 0 {
		t.Fatalf("%d writes pending before the checkpoint, want 0", n)
	}
	root, err := v.Resolve(task, "/")
	must("Resolve", err)
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		t.Fatal("root is not extlike")
	}
	disk := &barrierlessDisk{Device: dev}
	inst.Cache().SetEngine(kio.New(disk))
	must("SyncAll", v.SyncAll(task))

	// The checkpoint: each dirty block home once, a barrier, the
	// journal superblock, a barrier.
	snap := dev.Snapshot()
	pending := snap.PendingCount()
	n := len(disk.log)
	if n < 4 || n != pending+2 || disk.log[n-3] != "barrier" || disk.log[n-1] != "barrier" {
		t.Fatalf("checkpoint issue order %v (%d pending), want homes, barrier, superblock, barrier", disk.log, pending)
	}
	homes := disk.log[:n-3]
	distinct := slices.Clone(homes)
	slices.Sort(distinct)
	if len(homes) < 5 || len(homes) != len(slices.Compact(distinct)) {
		t.Fatalf("checkpoint wrote homes %v, want each block once", homes)
	}

	for k := 0; k <= pending; k++ {
		dev.Restore(snap)
		keep := map[int]bool{}
		for i := 0; i < k; i++ {
			keep[i] = true
		}
		dev.CrashApplySubset(keep)
		v2, task2 := mountExtlike(t, dev)
		for path, data := range want {
			fd, err := v2.Open(task2, path, vfs.ORdOnly)
			if err != kbase.EOK {
				t.Fatalf("prefix %d: Open(%s): %v", k, path, err)
			}
			got := make([]byte, len(data)+1)
			m, err := v2.Pread(task2, fd, got, 0)
			v2.Close(fd)
			if err != kbase.EOK || !bytes.Equal(got[:m], data) {
				t.Fatalf("prefix %d: %s holds %d bytes (%v), not its committed %d", k, path, m, err, len(data))
			}
		}
		for _, path := range gone {
			if _, err := v2.Stat(task2, path); err != kbase.ENOENT {
				t.Fatalf("prefix %d: %s: %v, want ENOENT", k, path, err)
			}
		}
		if err := v2.Unmount(task2, "/"); err != kbase.EOK {
			t.Fatalf("prefix %d: Unmount: %v", k, err)
		}
		rep, err := extlike.Fsck(dev)
		if err != kbase.EOK || !rep.Clean() {
			t.Fatalf("prefix %d: Fsck (%v):\n%s", k, err, rep.Summary())
		}
	}
}
