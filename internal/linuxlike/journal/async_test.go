package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
)

// asyncSetup is testSetup plus the kio engine the journal commits
// through (its cache's).
func asyncSetup(t *testing.T) (*blockdev.Device, *bufcache.Cache, *Journal, *kio.Engine) {
	t.Helper()
	dev, cache, j := testSetup(t)
	return dev, cache, j, cache.Engine()
}

// journalRecord hand-encodes one journal control block (magic, kind,
// seq, then the count or checksum word, then 8-byte tags) so the test
// checks the on-disk format independently of the journal's encoder.
func journalRecord(bs int, kind uint32, seq uint64, word uint32, tags ...uint64) []byte {
	buf := make([]byte, bs)
	binary.LittleEndian.PutUint32(buf[0:], 0x6A424432) // "jBD2"
	binary.LittleEndian.PutUint32(buf[4:], kind)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[16:], word)
	for i, tag := range tags {
		binary.LittleEndian.PutUint64(buf[20+8*i:], tag)
	}
	return buf
}

// TestAsyncCommitEquivalentToSync runs a transaction sequence through
// the kio commit path and asserts the durable on-disk image — journal
// region included — after a worst-case crash plus recovery equals the
// image the synchronous commit wrote, encoded block by block here: each
// transaction's descriptor, data, revoke and commit record (with its
// crc over the data) at its position, the superblock recovery wrote,
// and the home blocks replay restored.
func TestAsyncCommitEquivalentToSync(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	writeVia(t, cache, j, 40, 0xA1)
	writeVia(t, cache, j, 41, 0xA2)
	if err := j.CommitCtx(nil); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	// Second transaction with a revoke.
	h := j.Begin()
	if err := h.Revoke(41); err != kbase.EOK {
		t.Fatalf("Revoke: %v", err)
	}
	h.Stop()
	writeVia(t, cache, j, 42, 0xA3)
	if err := j.CommitCtx(nil); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	// Crash dropping all unflushed (home) writes, then recover.
	j = crash(dev, j)
	if _, err := j.Recover(); err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}

	const (
		kindSuper, kindDesc, kindCommit, kindRevoke = 1, 2, 3, 4
	)
	bs := dev.BlockSize()
	a1, a2, a3 := bytes.Repeat([]byte{0xA1}, bs), bytes.Repeat([]byte{0xA2}, bs), bytes.Repeat([]byte{0xA3}, bs)
	want := map[uint64][]byte{
		0: journalRecord(bs, kindSuper, 3, 0), // recovery moved the tail past both
		// Transaction 1: descriptor, two data blocks, commit.
		1: journalRecord(bs, kindDesc, 1, 2, 40, 41),
		2: a1,
		3: a2,
		4: journalRecord(bs, kindCommit, 1, crc32.ChecksumIEEE(append(append([]byte{}, a1...), a2...))),
		// Transaction 2: descriptor, data, revoke, commit.
		5: journalRecord(bs, kindDesc, 2, 1, 42),
		6: a3,
		7: journalRecord(bs, kindRevoke, 2, 1, 41),
		8: journalRecord(bs, kindCommit, 2, crc32.ChecksumIEEE(a3)),
		// Home blocks: a commit writes no home, and no checkpoint ran,
		// so replay alone restored 40 and 42. Block 41 was revoked by
		// transaction 2 before any checkpoint wrote it home, so replay
		// skips it and its home stays zero.
		40: a1,
		42: a3,
	}
	zero := make([]byte, bs)
	for b := uint64(0); b < dev.Blocks(); b++ {
		exp, ok := want[b]
		if !ok {
			exp = zero
		}
		if got := readBlock(t, dev, b); !bytes.Equal(got, exp) {
			t.Errorf("block %d:\n got  %x\n want %x", b, got, exp)
		}
	}
}

// TestAsyncCommitRecoversAfterCrash is the basic durability contract
// on the kio path: committed-but-not-checkpointed updates
// survive a crash via replay.
func TestAsyncCommitRecoversAfterCrash(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	writeVia(t, cache, j, 45, 0xBB)
	if err := j.CommitCtx(nil); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	j = crash(dev, j)
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
			errs <- j.CommitCtx(nil)
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != kbase.EOK {
			t.Fatalf("concurrent Commit: %v", err)
		}
	}
	if got := j.stats.BlocksLogged; got < writers {
		t.Fatalf("BlocksLogged = %d, want >= %d", got, writers)
	}
}

// TestAsyncCommitENOSPCReinstates verifies the out-of-journal-space
// path reinstates the transaction (the check happens before
// submission, so no partial log can exist).
func TestAsyncCommitENOSPCReinstates(t *testing.T) {
	dev, cache, j, _ := asyncSetup(t)
	_ = dev
	// 32-block journal region, superblock at 0: a transaction needs
	// 1+N+1 blocks. Fill the region with small commits, then overflow.
	for i := 0; i < 10; i++ {
		writeVia(t, cache, j, uint64(40+i), byte(i+1))
		if err := j.CommitCtx(nil); err != kbase.EOK {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	writeVia(t, cache, j, 55, 0xEE)
	err := j.CommitCtx(nil)
	if err != kbase.ENOSPC {
		t.Fatalf("overflow Commit: %v, want ENOSPC", err)
	}
	// Checkpoint frees the region; the reinstated transaction commits.
	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j.CommitCtx(nil); err != kbase.EOK {
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
	if err := j.CommitCtx(nil); err == kbase.EOK {
		t.Fatal("Commit succeeded with failing device writes")
	}
	dev.FailNextWrites(0)
	j = crash(dev, j)
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
