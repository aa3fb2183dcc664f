package kio

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

func testEngine(t *testing.T, blocks uint64) (*Engine, *blockdev.Device) {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(dev)
	t.Cleanup(e.Close)
	return e, dev
}

func fill(n int, b byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, _ := testEngine(t, 32)
	b := e.NewBatch()
	want := fill(e.BlockSize(), 0xAB)
	if err := b.Write(3, want, 1); err != kbase.EOK {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, e.BlockSize())
	if err := b.Read(3, got, 2); err != kbase.EOK {
		t.Fatalf("Read: %v", err)
	}
	cqes := b.Submit().Wait()
	if len(cqes) != 2 {
		t.Fatalf("got %d CQEs, want 2", len(cqes))
	}
	for i, cqe := range cqes {
		if cqe.Err != kbase.EOK {
			t.Fatalf("CQE %d: %v", i, cqe.Err)
		}
	}
	if cqes[0].User != 1 || cqes[1].User != 2 {
		t.Fatalf("user tags out of order: %d, %d", cqes[0].User, cqes[1].User)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read after write through the engine mismatched")
	}
}

func TestBarrierMakesWritesDurable(t *testing.T) {
	e, dev := testEngine(t, 32)
	b := e.NewBatch()
	payload := make(map[uint64][]byte)
	for blk := uint64(0); blk < 20; blk++ {
		payload[blk] = fill(e.BlockSize(), byte(blk+1))
		if err := b.Write(blk, payload[blk], blk); err != kbase.EOK {
			t.Fatalf("Write(%d): %v", blk, err)
		}
	}
	b.Barrier(99)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	// Every write was flushed by the barrier: a crash that drops the
	// write cache must not lose them.
	dev.CrashApplyNone()
	buf := make([]byte, e.BlockSize())
	for blk, want := range payload {
		if err := dev.Read(blk, buf); err != kbase.EOK {
			t.Fatalf("Read(%d): %v", blk, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("block %d not durable after barrier", blk)
		}
	}
	if got := e.barriers.Load(); got != 1 {
		t.Fatalf("Barriers = %d, want 1", got)
	}
}

func TestZeroCopyOwnershipPath(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, dev := testEngine(t, 32)

	page := own.New(ck, "test:page", fill(e.BlockSize(), 0x5A))
	b := e.NewBatch()
	if err := b.WriteOwned(7, page, 1); err != kbase.EOK {
		t.Fatalf("WriteOwned: %v", err)
	}
	// Ownership moved at the call: the caller's handle is stale now.
	if page.Valid() {
		t.Fatal("submitter handle still valid after ownership-move submit")
	}
	b.Barrier(2)
	cqes := b.Submit().Wait()
	if cqes[0].Err != kbase.EOK {
		t.Fatalf("write CQE: %v", cqes[0].Err)
	}

	if got := e.avoided.Load(); got != 1 {
		t.Fatalf("copies avoided = %d, want 1", got)
	}
	if copied, copies := e.copied.Load(), e.copies.Load(); copied != 0 || copies != 0 {
		t.Fatalf("ownership path copied: %d bytes in %d copies", copied, copies)
	}
	buf := make([]byte, e.BlockSize())
	dev.Read(7, buf)
	if !bytes.Equal(buf, fill(e.BlockSize(), 0x5A)) {
		t.Fatal("moved payload did not reach the device")
	}
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations())
	}
	// The engine fulfilled the free obligation at completion.
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("ownership path leaked: %v", leaks)
	}
}

func TestCopyPathCountsCopies(t *testing.T) {
	e, _ := testEngine(t, 32)
	b := e.NewBatch()
	data := fill(e.BlockSize(), 0x11)
	for blk := uint64(0); blk < 5; blk++ {
		b.Write(blk, data, blk)
	}
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	if got := e.copies.Load(); got != 5 {
		t.Fatalf("copies performed = %d, want 5", got)
	}
	if got, want := e.copied.Load(), uint64(5*e.BlockSize()); got != want {
		t.Fatalf("bytes copied = %d, want %d", got, want)
	}
	// The caller's buffer is reusable immediately: mutate it and check
	// the device kept the original payload.
	b2 := e.NewBatch()
	b2.Write(10, data, 0)
	data[0] = 0xFF
	b2.Barrier(0)
	if err := b2.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch2: %v", err)
	}
	got := make([]byte, e.BlockSize())
	b3 := e.NewBatch()
	b3.Read(10, got, 0)
	if err := b3.Submit().Err(); err != kbase.EOK {
		t.Fatalf("read: %v", err)
	}
	if got[0] != 0x11 {
		t.Fatal("copying path aliased the caller's buffer")
	}
}

func TestWriteOwnedWrongSizeFreesPage(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, _ := testEngine(t, 32)
	page := own.New(ck, "bad:page", make([]byte, 3))
	b := e.NewBatch()
	if err := b.WriteOwned(1, page, 0); err != kbase.EINVAL {
		t.Fatalf("wrong-size WriteOwned: %v, want EINVAL", err)
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("rejected page leaked: %v", leaks)
	}
	// A stale handle (already moved) is rejected and recorded.
	p2 := own.New(ck, "stale:page", make([]byte, e.BlockSize()))
	moved := p2.Move()
	if err := b.WriteOwned(1, p2, 0); err != kbase.EINVAL {
		t.Fatalf("stale WriteOwned: %v, want EINVAL", err)
	}
	if !slices.ContainsFunc(ck.Violations(), func(v own.Violation) bool { return v.Kind == own.VUseAfterMove }) {
		t.Fatal("stale-handle submit recorded no use-after-move violation")
	}
	moved.Free()
}

// TestReleaseReusesBatch: a released batch comes back from NewBatch
// empty, with the queues it grew, and an owned page it held but never
// submitted is freed rather than leaked.
func TestReleaseReusesBatch(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, dev := testEngine(t, 32)
	b := e.NewBatch()
	for i := 0; i < 2*inlineSQEs; i++ {
		if err := b.Write(uint64(i), fill(e.BlockSize(), byte(i)), 0); err != kbase.EOK {
			t.Fatalf("Write: %v", err)
		}
	}
	b.Barrier(0)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("Submit: %v", err)
	}
	if err := b.WriteOwned(1, own.New(ck, "unsubmitted:page", fill(e.BlockSize(), 7)), 0); err != kbase.EOK {
		t.Fatalf("WriteOwned: %v", err)
	}
	grown := cap(b.pending)
	b.Release()
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("released batch leaked its unsubmitted page: %v", leaks)
	}
	b2 := e.NewBatch()
	if b2 != b || len(b2.pending) != 0 || cap(b2.pending) != grown || len(b2.Submit().Wait()) != 0 {
		t.Fatal("NewBatch did not hand back the released batch, empty and with its queues")
	}
	got := make([]byte, e.BlockSize())
	if dev.Read(1, got); !bytes.Equal(got, fill(e.BlockSize(), 1)) {
		t.Fatal("the unsubmitted write reached the device")
	}
}

// TestSubmitClearsExecutedSlots: a Submit leaves no buffer or page in
// any slot of the batch's queue, however far it grew, so Release needs
// to clear only what is still pending; on a reused batch that frees
// the unsubmitted owned pages and nothing the engine already freed.
func TestSubmitClearsExecutedSlots(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, _ := testEngine(t, 32)
	pinned := func(b *Batch) int {
		n := 0
		for _, s := range b.pending[:cap(b.pending)] {
			if s.buf != nil || s.page != (own.Owned[[]byte]{}) {
				n++
			}
		}
		return n
	}
	b := e.NewBatch()
	buf := make([]byte, e.BlockSize())
	for i := 0; i < 1024; i++ {
		blk := uint64(i % 32)
		var err kbase.Errno
		switch i % 3 {
		case 0:
			err = b.Write(blk, fill(e.BlockSize(), byte(i)), 0)
		case 1:
			err = b.WriteOwned(blk, own.New(ck, "submitted:page", fill(e.BlockSize(), byte(i))), 0)
		default:
			err = b.Read(blk, buf, 0)
		}
		if err != kbase.EOK {
			t.Fatalf("SQE %d: %v", i, err)
		}
	}
	b.Barrier(0)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("Submit: %v", err)
	}
	if n := pinned(b); n != 0 {
		t.Fatalf("after Submit %d of %d queue slots still hold a buffer or page", n, cap(b.pending))
	}
	b.Release()

	b = e.NewBatch()
	if cap(b.pending) < 1024 {
		t.Fatalf("reused batch has %d slots, want the grown queue", cap(b.pending))
	}
	for i := 0; i < 3; i++ {
		if err := b.WriteOwned(uint64(i), own.New(ck, "unsubmitted:page", fill(e.BlockSize(), 7)), 0); err != kbase.EOK {
			t.Fatalf("WriteOwned: %v", err)
		}
	}
	b.Release()
	if n := pinned(b); n != 0 {
		t.Fatalf("after Release %d queue slots still hold a buffer or page", n)
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("released batch leaked its unsubmitted pages: %v", leaks)
	}
	if v := ck.Violations(); len(v) != 0 {
		t.Fatalf("Release touched pages the engine had already freed: %v", v)
	}

	// A panic out of the device, with no gate to contain it, leaves the
	// executed slots clear too: the caller's deferred Release pools the
	// batch.
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	pe := New(panickyFlush{plainBackend{dev}})
	defer pe.Close()
	b = pe.NewBatch()
	b.Write(1, fill(pe.BlockSize(), 1), 0)
	b.Barrier(0)
	func() {
		defer func() { _ = recover() }()
		b.Submit()
	}()
	if n := pinned(b); n != 0 {
		t.Fatalf("after a panicking Submit %d queue slots still hold a buffer or page", n)
	}
}

// panickyFlush is a backend whose flush panics.
type panickyFlush struct{ plainBackend }

func (panickyFlush) Flush() kbase.Errno { panic("flush") }

// TestDuplicateWritesReachDevice pins that the engine does not merge:
// every write SQE, including a rewrite of a block earlier in the same
// batch, reaches the device in submit order and the last one wins.
func TestDuplicateWritesReachDevice(t *testing.T) {
	e, dev := testEngine(t, 32)
	b := e.NewBatch()
	b.Write(5, fill(e.BlockSize(), 0x01), 1)
	b.Write(5, fill(e.BlockSize(), 0x02), 2)
	b.Barrier(3)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	if got := ktrace.Read(dev.CollectMetrics, "writes"); got != 2 {
		t.Fatalf("device writes = %d, want 2", got)
	}
	buf := make([]byte, e.BlockSize())
	dev.Read(5, buf)
	if buf[0] != 0x02 {
		t.Fatalf("block 5 holds %#x, want the last write", buf[0])
	}
}

func TestErrorReporting(t *testing.T) {
	e, dev := testEngine(t, 32)
	dev.MarkBad(4)
	b := e.NewBatch()
	b.Write(3, fill(e.BlockSize(), 1), 1)
	b.Write(4, fill(e.BlockSize(), 1), 2)
	b.Write(5, fill(e.BlockSize(), 1), 3)
	t1 := b.Submit()
	if err := t1.Err(); err != kbase.EIO {
		t.Fatalf("Err = %v, want EIO", err)
	}
	cqes := t1.Wait()
	if cqes[0].Err != kbase.EOK || cqes[1].Err != kbase.EIO || cqes[2].Err != kbase.EOK {
		t.Fatalf("per-CQE errors wrong: %v %v %v", cqes[0].Err, cqes[1].Err, cqes[2].Err)
	}
	// Enqueue-time validation.
	if err := b.Write(99, fill(e.BlockSize(), 1), 0); err != kbase.EINVAL {
		t.Fatalf("out-of-range Write: %v", err)
	}
	if err := b.Read(1, make([]byte, 3), 0); err != kbase.EINVAL {
		t.Fatalf("short Read: %v", err)
	}
}

func TestIncrementalSubmitSharedTicket(t *testing.T) {
	e, _ := testEngine(t, 64)
	b := e.NewBatch()
	b.Write(1, fill(e.BlockSize(), 1), 1)
	t1 := b.Submit()
	b.Write(2, fill(e.BlockSize(), 2), 2)
	// Enqueued but not yet submitted: not part of the join.
	if n := len(t1.Wait()); n != 1 {
		t.Fatalf("ticket joined %d CQEs before the second Submit, want 1", n)
	}
	t2 := b.Submit()
	if t1 != t2 {
		t.Fatal("Submit returned distinct tickets for one batch")
	}
	cqes := t2.Wait()
	if len(cqes) != 2 {
		t.Fatalf("ticket joined %d CQEs, want 2", len(cqes))
	}
	if cqes[0].User != 1 || cqes[1].User != 2 {
		t.Fatal("CQEs out of submit order")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(dev)
	b := e.NewBatch()
	for blk := uint64(0); blk < 32; blk++ {
		b.Write(blk, fill(e.BlockSize(), byte(blk)), blk)
	}
	tk := b.Submit()
	e.Close()
	if err := tk.Err(); err != kbase.EOK {
		t.Fatalf("pre-Close batch: %v", err)
	}
	// New submissions fail fast.
	b2 := e.NewBatch()
	b2.Write(1, fill(e.BlockSize(), 1), 0)
	b2.Barrier(1)
	for _, cqe := range b2.Submit().Wait() {
		if cqe.Err != kbase.ENODEV {
			t.Fatalf("post-Close %v SQE: %v, want ENODEV", cqe.Op, cqe.Err)
		}
	}
	e.Close() // idempotent
}

// TestNoGoroutines pins the inline design: the engine runs every batch
// on its submitter, so New, Submit and Close start no goroutine.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(dev)
	b := e.NewBatch()
	for blk := uint64(0); blk < 16; blk++ {
		b.Write(blk, fill(e.BlockSize(), byte(blk)), blk)
	}
	b.Barrier(0)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	// At most before: a goroutine of an earlier test may still be
	// exiting, but the engine must not add one.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d after New+Submit, want at most %d", n, before)
	}
	e.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d after Close, want at most %d", n, before)
	}
}

// TestConcurrentBatches hammers the engine from many goroutines, each
// with its own batch and disjoint block range — the -race target for
// the shared counters, the drain lock and the device.
func TestConcurrentBatches(t *testing.T) {
	ck := own.NewChecker(own.PolicyRecord)
	e, _ := testEngine(t, 1024)
	const gor = 8
	const perG = 16
	var wg sync.WaitGroup
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 100)
			for round := 0; round < perG; round++ {
				b := e.NewBatch()
				for blk := base; blk < base+10; blk++ {
					if round%2 == 0 {
						page := own.New(ck, "stress:page", fill(e.BlockSize(), byte(round)))
						if err := b.WriteOwned(blk, page, blk); err != kbase.EOK {
							t.Errorf("WriteOwned: %v", err)
							return
						}
					} else {
						if err := b.Write(blk, fill(e.BlockSize(), byte(round)), blk); err != kbase.EOK {
							t.Errorf("Write: %v", err)
							return
						}
					}
				}
				b.Barrier(0)
				for _, cqe := range b.Submit().Wait() {
					if cqe.Err != kbase.EOK {
						t.Errorf("CQE: %v", cqe.Err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := ck.Count(); n != 0 {
		t.Fatalf("checker recorded %d violations: %v", n, ck.Violations()[:min(5, n)])
	}
	if leaks := ck.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("%d pages leaked", len(leaks))
	}
	if c, s := e.completed.Load(), e.submitted.Load(); c != s {
		t.Fatalf("completed %d != submitted %d", c, s)
	}
}

// TestPerBlockOrderAcrossBatches verifies writes to one block from
// successive batches apply in submit order.
func TestPerBlockOrderAcrossBatches(t *testing.T) {
	e, dev := testEngine(t, 16)
	for i := 0; i < 50; i++ {
		b := e.NewBatch()
		b.Write(3, fill(e.BlockSize(), byte(i)), uint64(i))
		b.Submit()
	}
	b := e.NewBatch()
	b.Barrier(0)
	b.Submit()
	buf := make([]byte, e.BlockSize())
	dev.Read(3, buf)
	if buf[0] != 49 {
		t.Fatalf("block 3 holds write %d, want 49 (per-block order broken)", buf[0])
	}
}

func TestBackendWithoutFastPaths(t *testing.T) {
	// A Backend that is only spec.DiskLike-shaped: no WriteOwned. The
	// engine must fall back to plain Write/Read.
	dev := blockdev.New(blockdev.Config{Blocks: 32, BlockSize: 64, Rng: kbase.NewRng(7)})
	e := New(plainBackend{dev})
	defer e.Close()
	b := e.NewBatch()
	want := fill(e.BlockSize(), 0x7E)
	b.Write(2, want, 1)
	b.Barrier(2)
	if err := b.Submit().Err(); err != kbase.EOK {
		t.Fatalf("batch: %v", err)
	}
	got := make([]byte, e.BlockSize())
	dev.Read(2, got)
	if !bytes.Equal(got, want) {
		t.Fatal("plain-backend write lost")
	}
}

type plainBackend struct{ d *blockdev.Device }

func (p plainBackend) BlockSize() int                          { return p.d.BlockSize() }
func (p plainBackend) Blocks() uint64                          { return p.d.Blocks() }
func (p plainBackend) Read(b uint64, buf []byte) kbase.Errno   { return p.d.Read(b, buf) }
func (p plainBackend) Write(b uint64, data []byte) kbase.Errno { return p.d.Write(b, data) }
func (p plainBackend) Flush() kbase.Errno                      { return p.d.Flush() }
