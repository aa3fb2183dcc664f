package journal

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
)

// asyncSetup is testSetup plus a kio engine on the journal's device,
// wired into the journal.
func asyncSetup(t *testing.T) (*blockdev.Device, *bufcache.Cache, *Journal, *kio.Engine) {
	t.Helper()
	dev, cache, j := testSetup(t)
	e := kio.New(dev)
	t.Cleanup(e.Close)
	j.SetEngine(e)
	return dev, cache, j, e
}

// TestAsyncCommitEquivalentToSync runs the same transaction sequence
// through the synchronous and kio commit paths and asserts the
// durable on-disk images — journal region included — are identical
// after a worst-case crash plus recovery on each.
func TestAsyncCommitEquivalentToSync(t *testing.T) {
	run := func(async bool) []byte {
		dev, cache, j := testSetup(t)
		var e *kio.Engine
		if async {
			e = kio.New(dev)
			defer e.Close()
			j.SetEngine(e)
		}
		writeVia(t, cache, j, 40, 0xA1)
		writeVia(t, cache, j, 41, 0xA2)
		if err := j.Commit(); err != kbase.EOK {
			t.Fatalf("Commit 1 (async=%v): %v", async, err)
		}
		// Second transaction with a revoke.
		h := j.Begin()
		if err := h.Revoke(41); err != kbase.EOK {
			t.Fatalf("Revoke: %v", err)
		}
		h.Stop()
		writeVia(t, cache, j, 42, 0xA3)
		if err := j.Commit(); err != kbase.EOK {
			t.Fatalf("Commit 2 (async=%v): %v", async, err)
		}
		// Crash dropping all unflushed (home) writes, then recover.
		dev.CrashApplyNone()
		cache.Invalidate()
		if _, err := j.Recover(); err != kbase.EOK {
			t.Fatalf("Recover (async=%v): %v", async, err)
		}
		var img []byte
		buf := make([]byte, dev.BlockSize())
		for b := uint64(0); b < dev.Blocks(); b++ {
			if err := dev.Read(b, buf); err != kbase.EOK {
				t.Fatalf("Read(%d): %v", b, err)
			}
			img = append(img, buf...)
		}
		return img
	}
	syncImg := run(false)
	asyncImg := run(true)
	if !bytes.Equal(syncImg, asyncImg) {
		for i := range syncImg {
			if syncImg[i] != asyncImg[i] {
				t.Fatalf("durable images diverge at byte %d (block %d): sync=%02x async=%02x",
					i, i/128, syncImg[i], asyncImg[i])
			}
		}
	}
}

// TestAsyncCommitRecoversAfterCrash is the basic durability contract
// on the kio path: committed-but-not-checkpointed updates
// survive a crash via replay.
func TestAsyncCommitRecoversAfterCrash(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	writeVia(t, cache, j, 45, 0xBB)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d transactions, want 1", n)
	}
	got := readBlock(t, dev, 45)
	for i, b := range got {
		if b != 0xBB {
			t.Fatalf("block 45 byte %d = %02x after replay, want BB", i, b)
		}
	}
}

// TestAsyncCommitGroupCommit exercises the blocking group-commit
// protocol on the async path: concurrent committers all observe the
// round's outcome.
func TestAsyncCommitGroupCommit(t *testing.T) {
	_, cache, j, _ := asyncSetup(t)
	const writers = 8
	errs := make(chan kbase.Errno, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			h := j.Begin()
			bh, err := cache.Bread(uint64(40 + w))
			if err != kbase.EOK {
				errs <- err
				return
			}
			if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
				errs <- err
				return
			}
			for i := range bh.Data {
				bh.Data[i] = byte(w)
			}
			h.DirtyMetadata(bh.Meta())
			bh.Put()
			h.Stop()
			errs <- j.Commit()
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != kbase.EOK {
			t.Fatalf("concurrent Commit: %v", err)
		}
	}
	if got := j.Stats().BlocksLogged; got < writers {
		t.Fatalf("BlocksLogged = %d, want >= %d", got, writers)
	}
}

// TestAsyncCommitENOSPCReinstates verifies the out-of-journal-space
// path still reinstates the transaction with the engine set (the check
// happens before submission, so no partial log can exist).
func TestAsyncCommitENOSPCReinstates(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	_ = dev
	// 32-block journal region, superblock at 0: a transaction needs
	// 1+N+1 blocks. Fill the region with small commits, then overflow.
	for i := 0; i < 10; i++ {
		writeVia(t, cache, j, uint64(40+i), byte(i+1))
		if err := j.Commit(); err != kbase.EOK {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	writeVia(t, cache, j, 55, 0xEE)
	err := j.Commit()
	if err != kbase.ENOSPC {
		t.Fatalf("overflow Commit: %v, want ENOSPC", err)
	}
	// Checkpoint frees the region; the reinstated transaction commits.
	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("post-checkpoint Commit: %v", err)
	}
	got := readBlock(t, dev, 55)
	if got[0] != 0xEE {
		t.Fatal("reinstated transaction's update lost")
	}
}

// TestAsyncCommitWriteFailure verifies a failed log-block submission
// surfaces from Commit and never writes a commit record: after the
// failure, recovery must replay nothing from the torn transaction.
func TestAsyncCommitWriteFailure(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	writeVia(t, cache, j, 44, 0xCD)
	// Fail every journal write of this commit (descriptor + 1 data
	// block go through the engine; the counter also covers the commit
	// record if the body unexpectedly survives).
	dev.FailNextWrites(4)
	if err := j.Commit(); err == kbase.EOK {
		t.Fatal("Commit succeeded with failing device writes")
	}
	dev.FailNextWrites(0)
	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 0 {
		t.Fatalf("replayed %d transactions from a failed commit, want 0", n)
	}
	got := readBlock(t, dev, 44)
	if got[0] == 0xCD {
		t.Fatal("failed commit's update reached the home location")
	}
}
