package journal

import (
	"encoding/binary"
	"testing"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
)

// Layout for tests: blocks 0..31 journal, 32..63 data.
func testSetup(t *testing.T) (*blockdev.Device, *bufcache.Cache, *Journal) {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 128, Rng: kbase.NewRng(5)})
	cache := bufcache.NewCache(dev, 0)
	j := New(cache, 0, 32)
	if err := j.Format(); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	return dev, cache, j
}

func writeVia(t *testing.T, cache *bufcache.Cache, j *Journal, block uint64, fill byte) {
	t.Helper()
	h := j.Begin()
	bh, err := cache.Bread(block)
	if err != kbase.EOK {
		t.Fatalf("Bread(%d): %v", block, err)
	}
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		t.Fatalf("GetWriteAccess: %v", err)
	}
	for i := range bh.Data {
		bh.Data[i] = fill
	}
	if err := h.DirtyMetadata(bh.Meta()); err != kbase.EOK {
		t.Fatalf("DirtyMetadata: %v", err)
	}
	bh.Put()
	h.Stop()
}

func readBlock(t *testing.T, dev *blockdev.Device, block uint64) []byte {
	t.Helper()
	buf := make([]byte, dev.BlockSize())
	if err := dev.Read(block, buf); err != kbase.EOK {
		t.Fatalf("Read(%d): %v", block, err)
	}
	return buf
}

func TestCommitMakesJournalDurable(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 40, 0xAA)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	// Crash before checkpoint: home write may be lost...
	dev.CrashApplyNone()
	cache.Invalidate()
	if got := readBlock(t, dev, 40)[0]; got != 0 {
		t.Fatalf("home block durable before checkpoint without replay: %#x", got)
	}
	// ...but recovery replays it.
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("Recover replayed %d txns, want 1", n)
	}
	if got := readBlock(t, dev, 40)[0]; got != 0xAA {
		t.Fatalf("replayed block = %#x, want 0xAA", got)
	}
}

func TestUncommittedTxNotReplayed(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 41, 0xBB)
	// No commit. Crash.
	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 0 {
		t.Fatalf("uncommitted txn replayed")
	}
	if got := readBlock(t, dev, 41)[0]; got != 0 {
		t.Fatalf("uncommitted data visible: %#x", got)
	}
}

func TestCheckpointMakesHomeDurable(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 42, 0xCC)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	dev.CrashApplyNone()
	cache.Invalidate()
	if got := readBlock(t, dev, 42)[0]; got != 0xCC {
		t.Fatalf("checkpointed block lost: %#x", got)
	}
	// Recovery after checkpoint must be a no-op.
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 0 {
		t.Fatalf("Recover replayed %d after clean checkpoint", n)
	}
}

func TestMultipleTransactionsReplayInOrder(t *testing.T) {
	dev, cache, j := testSetup(t)
	// Two commits touching the same block; later must win.
	writeVia(t, cache, j, 43, 0x01)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	writeVia(t, cache, j, 43, 0x02)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	dev.CrashApplyNone()
	cache.Invalidate()
	n, _ := j.Recover()
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
	if got := readBlock(t, dev, 43)[0]; got != 0x02 {
		t.Fatalf("replay order wrong: %#x", got)
	}
}

func TestRevokePreventsReplay(t *testing.T) {
	dev, cache, j := testSetup(t)
	// Txn 1 journals block 44 as metadata.
	writeVia(t, cache, j, 44, 0x0D)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	// Txn 2 revokes it (block freed, reused as unjournaled data).
	h := j.Begin()
	if err := h.Revoke(44); err != kbase.EOK {
		t.Fatalf("Revoke: %v", err)
	}
	// Txn needs at least one buffer to be meaningful; touch another.
	bh, _ := cache.Bread(45)
	h.GetWriteAccess(bh.Meta())
	bh.Data[0] = 0x0E
	h.DirtyMetadata(bh.Meta())
	bh.Put()
	h.Stop()
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	// Overwrite block 44 directly (reused as data), durable.
	data := make([]byte, dev.BlockSize())
	data[0] = 0xFF
	dev.Write(44, data)
	dev.Flush()

	dev.CrashApplyNone()
	cache.Invalidate()
	j.Recover()
	if got := readBlock(t, dev, 44)[0]; got != 0xFF {
		t.Fatalf("revoked block was replayed: %#x", got)
	}
	if got := readBlock(t, dev, 45)[0]; got != 0x0E {
		t.Fatalf("non-revoked block not replayed: %#x", got)
	}
}

func TestDirtyMetadataWithoutAccessOopses(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	_, cache, j := testSetup(t)
	h := j.Begin()
	bh, _ := cache.Bread(50)
	if err := h.DirtyMetadata(bh.Meta()); err != kbase.EINVAL {
		t.Fatalf("DirtyMetadata without access: %v", err)
	}
	if rec.Count(kbase.OopsSemantic) != 1 {
		t.Fatalf("protocol violation not reported")
	}
	bh.Put()
	h.Stop()
}

func TestCommitBlocksUntilHandleStops(t *testing.T) {
	_, cache, j := testSetup(t)
	h := j.Begin()
	bh, _ := cache.Bread(51)
	h.GetWriteAccess(bh.Meta())
	h.DirtyMetadata(bh.Meta())
	bh.Put()
	// Group commit: a concurrent Commit waits for the open handle to
	// drain instead of failing with EBUSY, then commits the handle's
	// updates.
	done := make(chan kbase.Errno, 1)
	go func() { done <- j.Commit() }()
	select {
	case err := <-done:
		t.Fatalf("Commit completed with an open handle: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Stop()
	if err := <-done; err != kbase.EOK {
		t.Fatalf("Commit after Stop: %v", err)
	}
	if got := j.Stats().Commits; got != 1 {
		t.Fatalf("Commits = %d, want 1", got)
	}
	// A second Commit with nothing running is a no-op.
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("idle Commit: %v", err)
	}
}

func TestJournalFullReturnsENOSPC(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 128, Rng: kbase.NewRng(5)})
	cache := bufcache.NewCache(dev, 0)
	j := New(cache, 0, 5) // tiny journal: super + 4 blocks
	j.Format()
	// One txn with one buffer needs 3 blocks (desc+data+commit): fits.
	writeVia(t, cache, j, 40, 0x11)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("first Commit: %v", err)
	}
	// Next txn needs 3 more: doesn't fit (writePos=4, size=5).
	writeVia(t, cache, j, 41, 0x22)
	if err := j.Commit(); err != kbase.ENOSPC {
		t.Fatalf("Commit on full journal: %v", err)
	}
	// Checkpoint frees the region; commit now succeeds.
	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit after checkpoint: %v", err)
	}
}

func TestCommitEmptyJournalNoop(t *testing.T) {
	_, _, j := testSetup(t)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("empty Commit: %v", err)
	}
	if j.Stats().Commits != 0 {
		t.Fatalf("empty commit counted")
	}
}

func TestRecoverOnCorruptSuperblock(t *testing.T) {
	dev, _, j := testSetup(t)
	garbage := make([]byte, dev.BlockSize())
	for i := range garbage {
		garbage[i] = 0xDE
	}
	dev.Write(0, garbage)
	dev.Flush()
	if _, err := j.Recover(); err != kbase.EUCLEAN {
		t.Fatalf("Recover on corrupt super: %v", err)
	}
}

func TestTornCommitRecordStopsReplay(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 46, 0x66)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	// Corrupt the commit record's checksum on disk (journal block 3:
	// super=0, desc=1, data=2, commit=3).
	buf := readBlock(t, dev, 3)
	buf[16] ^= 0xFF
	dev.Write(3, buf)
	dev.Flush()
	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 0 {
		t.Fatalf("txn with corrupt commit checksum replayed")
	}
}

func TestStatsAccounting(t *testing.T) {
	_, cache, j := testSetup(t)
	writeVia(t, cache, j, 47, 0x01)
	j.Commit()
	j.Checkpoint()
	st := j.Stats()
	if st.Commits != 1 || st.BlocksLogged != 1 || st.Checkpoints != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEmptyCommitBetweenRealCommits: a transaction that logged nothing
// commits with no I/O and uses up its sequence number, so the two real
// transactions around it leave a gap on disk. Both still replay after a
// crash, and only they count as commits.
func TestEmptyCommitBetweenRealCommits(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 40, 0xA1)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	before := dev.Stats()
	j.Begin().Stop()
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("empty Commit: %v", err)
	}
	if after := dev.Stats(); after.Writes != before.Writes || after.Flushes != before.Flushes {
		t.Fatalf("empty commit did I/O: writes %d→%d, flushes %d→%d",
			before.Writes, after.Writes, before.Flushes, after.Flushes)
	}
	writeVia(t, cache, j, 41, 0xA2)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	// Super 0; transaction 1 is descriptor 1, data 2, commit 3; the
	// second real transaction's descriptor is block 4.
	seq1 := binary.LittleEndian.Uint64(readBlock(t, dev, 1)[8:])
	seq2 := binary.LittleEndian.Uint64(readBlock(t, dev, 4)[8:])
	if seq2 != seq1+2 {
		t.Fatalf("real commits carry seqs %d and %d, want a gap of one for the empty commit", seq1, seq2)
	}

	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 2 {
		t.Fatalf("Recover replayed %d transactions, want 2", n)
	}
	if a, b := readBlock(t, dev, 40)[0], readBlock(t, dev, 41)[0]; a != 0xA1 || b != 0xA2 {
		t.Fatalf("replayed homes = %#x, %#x; want 0xa1, 0xa2", a, b)
	}
	if c := j.Stats().Commits; c != 2 {
		t.Fatalf("Stats().Commits = %d, want 2", c)
	}
}

// TestWaiterAfterEmptyCommitSeesENOSPC: an empty commit is followed by
// a transaction whose commit finds the log full while a second
// committer waits on it. The waiter must not report the transaction
// committed; it retries and gets ENOSPC too. After a checkpoint the
// transaction commits and replays.
func TestWaiterAfterEmptyCommitSeesENOSPC(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 128, Rng: kbase.NewRng(5)})
	cache := bufcache.NewCache(dev, 0)
	j := New(cache, 0, 5) // super + 4 blocks: one 3-block transaction fits
	j.Format()
	writeVia(t, cache, j, 40, 0x11)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("first Commit: %v", err)
	}
	j.Begin().Stop()
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("empty Commit: %v", err)
	}

	// Hold a handle on the next transaction so its committer blocks
	// with the gate raised.
	h := j.Begin()
	bh, _ := cache.Bread(41)
	h.GetWriteAccess(bh.Meta())
	bh.Data[0] = 0x22
	h.DirtyMetadata(bh.Meta())
	bh.Put()
	first := make(chan kbase.Errno, 1)
	go func() { first <- j.Commit() }()
	for gated := false; !gated; {
		j.mu.Lock()
		gated = j.gate
		j.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	waiter := make(chan kbase.Errno, 1)
	go func() { waiter <- j.Commit() }()
	select {
	case err := <-waiter:
		t.Fatalf("waiting Commit returned %v during the commit", err)
	case <-time.After(20 * time.Millisecond):
	}
	h.Stop()
	if err := <-first; err != kbase.ENOSPC {
		t.Fatalf("committer: %v, want ENOSPC", err)
	}
	if err := <-waiter; err != kbase.ENOSPC {
		t.Fatalf("waiter: %v, want ENOSPC (its transaction is not on disk)", err)
	}

	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit after checkpoint: %v", err)
	}
	dev.CrashApplyNone()
	cache.Invalidate()
	if n, err := j.Recover(); err != kbase.EOK || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 transaction", n, err)
	}
	if b := readBlock(t, dev, 41)[0]; b != 0x22 {
		t.Fatalf("block 41 = %#x after recovery, want 0x22", b)
	}
}

// TestRewriteCancelsRevoke: a block revoked and then journaled again in
// the same transaction is metadata once more, so replay must restore
// the new copy rather than skip it.
func TestRewriteCancelsRevoke(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 42, 0x01)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	h := j.Begin()
	if err := h.Revoke(42); err != kbase.EOK {
		t.Fatalf("Revoke: %v", err)
	}
	h.Stop()
	writeVia(t, cache, j, 42, 0x02)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	dev.CrashApplyNone()
	cache.Invalidate()
	if n, err := j.Recover(); err != kbase.EOK || n != 2 {
		t.Fatalf("Recover = %d, %v; want 2 transactions", n, err)
	}
	if got := readBlock(t, dev, 42)[0]; got != 0x02 {
		t.Fatalf("block 42 after replay = %#x, want the rewrite 0x02", got)
	}
}

// TestRecoveryIdempotent runs recovery twice; the second run must be
// a no-op.
func TestRecoveryIdempotent(t *testing.T) {
	dev, cache, j := testSetup(t)
	writeVia(t, cache, j, 48, 0x88)
	j.Commit()
	dev.CrashApplyNone()
	cache.Invalidate()
	if n, _ := j.Recover(); n != 1 {
		t.Fatalf("first recover replayed %d", n)
	}
	if n, _ := j.Recover(); n != 0 {
		t.Fatalf("second recover replayed %d", n)
	}
	if got := readBlock(t, dev, 48)[0]; got != 0x88 {
		t.Fatalf("data lost across double recovery")
	}
}

// TestCheckpointWithRunningTransaction pins a recovery bug: a
// checkpoint taken while a transaction is running (the commit-on-full
// retry path) must not advance the tail past that transaction's
// sequence, or its eventual commit becomes unreplayable.
func TestCheckpointWithRunningTransaction(t *testing.T) {
	dev, cache, j := testSetup(t)
	// Commit one txn, then open a handle (running txn exists).
	writeVia(t, cache, j, 40, 0x01)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}
	h := j.Begin()
	bh, _ := cache.Bread(41)
	h.GetWriteAccess(bh.Meta())
	bh.Data[0] = 0x42
	h.DirtyMetadata(bh.Meta())
	bh.Put()
	h.Stop()
	// Checkpoint while the transaction is still running (created but
	// not yet committed — Checkpoint quiesces open handles, so the
	// handle is stopped first; the transaction itself stays running).
	if err := j.Checkpoint(); err != kbase.EOK {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}
	// Crash before the home write is durable; recovery must replay
	// the post-checkpoint transaction.
	dev.CrashApplyNone()
	cache.Invalidate()
	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d txns, want 1 (checkpoint excluded the running txn)", n)
	}
	if got := readBlock(t, dev, 41)[0]; got != 0x42 {
		t.Fatalf("committed data lost: %#x", got)
	}
}
