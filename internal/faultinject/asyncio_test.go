package faultinject

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/compartment"
	"safelinux/internal/safety/own"
)

// asyncJournalRig assembles a journaled device, mirroring how the
// kernel mounts extlike but small enough to crash deterministically,
// and returns the kio engine the journal commits through.
func asyncJournalRig(t *testing.T) (*blockdev.Device, *bufcache.Cache, *journal.Journal, *kio.Engine) {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 128, Rng: kbase.NewRng(7)})
	cache := bufcache.NewCache(dev, 0)
	j := journal.New(cache, 0, 32)
	if err := j.Format(); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	return dev, cache, j, cache.Engine()
}

// journalWrite mutates one home block under a journal handle.
func journalWrite(t *testing.T, cache *bufcache.Cache, j *journal.Journal, block uint64, fill byte) {
	t.Helper()
	h := j.Begin()
	bh, err := cache.Bread(block)
	if err != kbase.EOK {
		t.Fatalf("Bread(%d): %v", block, err)
	}
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		t.Fatalf("GetWriteAccess(%d): %v", block, err)
	}
	for i := range bh.Data {
		bh.Data[i] = fill
	}
	h.DirtyMetadata(bh.Meta())
	bh.Put()
	h.Stop()
}

// TestAsyncCommitTornSubmissionRecovery injects a write fault into the
// middle of a kio journal commit: one log-block submission of
// the async batch fails while its siblings complete.
// The commit must surface the error and write no commit record; after
// a crash, recovery replays only the earlier intact transaction and the
// recovered image matches the model of committed state. The flight
// recorder attached to the oops must name the failed kio submission so
// the campaign outcome is attributable without a debugger.
func TestAsyncCommitTornSubmissionRecovery(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	ktrace.ResizeBuffer(64)
	ktrace.EnableFlightRecorder(32)
	defer ktrace.DisableFlightRecorder()

	dev, cache, j, _ := asyncJournalRig(t)

	// The spec model: committed home-block content. Blocks outside the
	// model must keep their initial (zero) image.
	model := map[uint64]byte{}

	// Transaction 1 commits cleanly and enters the model.
	journalWrite(t, cache, j, 40, 0xC1)
	journalWrite(t, cache, j, 41, 0xC2)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}
	model[40], model[41] = 0xC1, 0xC2

	// Transaction 2 is torn: exactly one of its async log-block
	// submissions fails while the rest complete.
	journalWrite(t, cache, j, 42, 0xD1)
	journalWrite(t, cache, j, 43, 0xD2)
	dev.FailNextWrites(1)
	err := j.Commit()
	if err == kbase.EOK {
		t.Fatal("torn commit reported success")
	}
	dev.FailNextWrites(0)

	// The kernel's reaction to a failed commit: oops with the flight
	// recorder attached, black-boxing the I/O trail.
	kbase.Oops(kbase.OopsGeneric, "kio", "async journal commit failed: %v", err)

	// Crash losing everything not yet flushed, then remount-recover.
	dev.CrashApplyNone()
	cache.Invalidate()
	n, rerr := j.Recover()
	if rerr != kbase.EOK {
		t.Fatalf("Recover: %v", rerr)
	}
	if n != 1 {
		t.Fatalf("recovery replayed %d transactions, want 1 (torn commit must not replay)", n)
	}

	// The recovered image matches the model exactly: committed blocks
	// carry their committed bytes, everything else is untouched.
	raw := make([]byte, 128)
	for b := uint64(32); b < 64; b++ {
		if err := dev.Read(b, raw); err != kbase.EOK {
			t.Fatalf("Read(%d): %v", b, err)
		}
		want := model[b] // zero for unmodeled blocks
		for i, got := range raw {
			if got != want {
				t.Fatalf("block %d byte %d = %#x after recovery, model says %#x", b, i, got, want)
			}
		}
	}

	// The flight recorder names the failed submission: a kio:complete
	// event with a nonzero errno (a1=5, EIO) identifying the block that
	// never made it (a0).
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d oopses, want 1", len(evs))
	}
	oops := evs[0]
	if len(oops.Trace) == 0 {
		t.Fatal("oops carries no flight-recorder dump")
	}
	dump := strings.Join(oops.Trace, "\n")
	found := false
	for _, line := range oops.Trace {
		if strings.Contains(line, "kio:complete") && strings.Contains(line, "a1=5") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("dump does not name the failed kio submission (kio:complete with a1=5):\n%s", dump)
	}
	if !strings.Contains(oops.Trace[len(oops.Trace)-1], "kernel:oops") {
		t.Fatalf("dump does not end at the oops: %q", oops.Trace[len(oops.Trace)-1])
	}
}

// TestAsyncCrashMidBatchSubset drives the engine directly to model a
// power cut in the middle of a batch: a batch of log-region writes is
// submitted and flushed, then the device crash applies only a subset of
// a later, never-flushed batch. Recovery must replay exactly the
// transactions whose commit records are durable.
func TestAsyncCrashMidBatchSubset(t *testing.T) {
	dev, cache, j, e := asyncJournalRig(t)

	// One intact transaction: its log blocks and commit record are
	// durable before the crash window opens.
	journalWrite(t, cache, j, 50, 0xE1)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit: %v", err)
	}

	// A second "transaction" is cut mid-batch: its body blocks are
	// submitted asynchronously with no barrier, so they sit in the
	// device's pending queue when the power fails. Keep an arbitrary
	// strict subset — torn, out of order, no commit record.
	b := e.NewBatch()
	body := make([]byte, 128)
	for i := range body {
		body[i] = 0x5C
	}
	for i := uint64(0); i < 4; i++ {
		buf := make([]byte, 128)
		copy(buf, body)
		if err := b.Write(20+i, buf, i); err != kbase.EOK {
			t.Fatalf("Write: %v", err)
		}
	}
	cqes := b.Submit().Wait()
	if len(cqes) != 4 {
		t.Fatalf("got %d completions, want 4", len(cqes))
	}
	for _, cqe := range cqes {
		if cqe.Err != kbase.EOK {
			t.Fatalf("batch write failed: %v", cqe.Err)
		}
	}
	// Keep one arbitrary pending write (the queue also holds tx1's
	// unflushed home write): torn, out of order, no commit record.
	dev.CrashApplySubset(map[int]bool{1: true})
	cache.Invalidate()

	n, err := j.Recover()
	if err != kbase.EOK {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovery replayed %d transactions, want 1 (the committed one)", n)
	}
	// Replay restores the committed transaction's home block even
	// though its unflushed home write died in the crash.
	raw := make([]byte, 128)
	if err := dev.Read(50, raw); err != kbase.EOK {
		t.Fatalf("Read(50): %v", err)
	}
	for i, got := range raw {
		if got != 0xE1 {
			t.Fatalf("block 50 byte %d = %#x after replay, want E1", i, got)
		}
	}
}

// panickyDisk is a block device whose flush panics, standing in for a
// driver bug hit in the middle of a batch.
type panickyDisk struct{ *blockdev.Device }

func (panickyDisk) Flush() kbase.Errno { panic("injected flush fault") }

// TestKioPanicMidBatchCompletesEachSQEOnce drives a batch whose device
// panics part-way through, under the kio compartment. The writes ahead
// of the faulting flush complete normally; the flush and everything
// behind it complete with EFAULT. Every SQE completes exactly once (no
// moved page is freed twice), Wait returns at once, and the
// supervisor brings the compartment back to healthy.
func TestKioPanicMidBatchCompletesEachSQEOnce(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 128, Rng: kbase.NewRng(7)})
	e := kio.New(panickyDisk{dev})
	defer e.Close()
	plane := compartment.NewPlane()
	c := plane.Add("kio", compartment.Options{
		Restart: func(*kbase.Task) kbase.Errno { return kbase.EOK },
	})
	e.SetBoundary(c)
	ck := own.NewChecker(own.PolicyRecord)

	b := e.NewBatch()
	page := func() own.Owned[[]byte] { return own.New(ck, "kio:test", make([]byte, 128)) }
	b.WriteOwned(1, page(), 1)
	b.Write(2, make([]byte, 128), 2)
	b.Barrier(3) // panics
	b.WriteOwned(4, page(), 4)
	b.Read(5, make([]byte, 128), 5)
	cqes := b.Submit().Wait()

	want := []kbase.Errno{kbase.EOK, kbase.EOK, kbase.EFAULT, kbase.EFAULT, kbase.EFAULT}
	if len(cqes) != len(want) {
		t.Fatalf("%d CQEs, want %d", len(cqes), len(want))
	}
	for i, cqe := range cqes {
		if cqe.User != uint64(i+1) || cqe.Err != want[i] {
			t.Errorf("CQE %d = {user %d, %v}, want {user %d, %v}", i, cqe.User, cqe.Err, i+1, want[i])
		}
	}
	if st := e.Stats(); st.Completed != st.Submitted || st.Completed != 5 {
		t.Fatalf("completed %d of %d submitted SQEs, want each of 5 once", st.Completed, st.Submitted)
	}
	if n := ck.Count(); n != 0 {
		t.Fatalf("ownership violations: %v", ck.Violations())
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("moved pages leaked: %v", leaks)
	}
	plane.Settle()
	if !plane.AllHealthy() {
		t.Fatal("kio compartment did not return to healthy")
	}
	// The restarted compartment serves the engine again.
	b2 := e.NewBatch()
	b2.Write(6, make([]byte, 128), 6)
	if err := b2.Submit().Err(); err != kbase.EOK {
		t.Fatalf("post-restart batch: %v", err)
	}
}
