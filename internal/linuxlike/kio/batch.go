package kio

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

// inlineSQEs is how many SQEs and CQEs a batch holds in its own
// allocation before its slices grow: a small journal commit — data,
// descriptor, barrier, commit record, barrier — fits.
const inlineSQEs = 8

// freeBatches bounds an engine's list of released batches: one per
// concurrent submitter (a committing journal, fsyncs in flight).
const freeBatches = 8

// Batch is a submission queue under construction: enqueue SQEs, then
// Submit to execute them. A Batch is single-goroutine state; Submit
// may be called repeatedly (each call executes the SQEs enqueued since
// the last one) and every call returns the same Ticket. Release hands
// the batch back to its engine for reuse.
type Batch struct {
	e *Engine
	// pending holds the SQEs enqueued since the last Submit, by value;
	// pending[i] completes into t.results[t.submitted+i].
	pending []sqe
	t       Ticket

	sqes [inlineSQEs]sqe
	cqes [inlineSQEs]CQE
}

// NewBatch starts an empty batch, reusing one a caller released: a
// batch keeps the queues it grew, so a steady submitter allocates none.
func (e *Engine) NewBatch() *Batch {
	if b, ok := e.free.Get(); ok {
		return b
	}
	b := &Batch{e: e}
	b.pending = b.sqes[:0]
	b.t.results = b.cqes[:0]
	return b
}

// Release returns the batch to its engine. Neither the batch nor its
// Ticket may be used afterwards. SQEs enqueued but never submitted are
// dropped, and an owned page among them is freed: the engine received
// it at enqueue. Submit has already cleared the slots it executed, so
// the cost is that of the SQEs left pending, whatever capacity an
// earlier user grew the queue to.
func (b *Batch) Release() {
	for i := range b.pending {
		if b.pending[i].owned {
			b.pending[i].page.Free()
		}
	}
	// Drop the payload references, so a pooled batch keeps no page
	// alive, then empty the queues.
	clear(b.pending)
	b.pending = b.pending[:0]
	b.t.results = b.t.results[:0]
	b.t.submitted = 0
	b.e.free.Put(b)
}

// Page returns a block-sized buffer to fill and hand to WriteOwned: a
// page from the backend when it supplies them, else a new one. Its
// contents are stale; the caller overwrites all of it.
func (e *Engine) Page() []byte {
	if e.pages != nil {
		return e.pages.Page()
	}
	return make([]byte, e.backend.BlockSize())
}

// Read enqueues a read of block into buf, which must be exactly one
// block long and stay untouched until the SQE completes. user is
// returned verbatim in the CQE.
func (b *Batch) Read(block uint64, buf []byte, user uint64) kbase.Errno {
	if len(buf) != b.e.backend.BlockSize() {
		return kbase.EINVAL
	}
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	b.enqueue(sqe{op: OpRead, block: block, buf: buf}, user)
	return kbase.EOK
}

// Write enqueues a write of data to block on the legacy copying path:
// the batch copies data now (the caller may reuse the buffer
// immediately), exactly the one defensive copy every synchronous
// blockdev.Write performs. The bytes_copied counter accounts it. The
// copy lands in a page from Engine.Page.
func (b *Batch) Write(block uint64, data []byte, user uint64) kbase.Errno {
	if len(data) != b.e.backend.BlockSize() {
		return kbase.EINVAL
	}
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	cp := b.e.Page()
	copy(cp, data)
	b.e.copied.Add(uint64(len(cp)))
	b.e.copies.Add(1)
	b.enqueue(sqe{op: OpWrite, block: block, buf: cp}, user)
	return kbase.EOK
}

// WriteOwned enqueues a write of an owned page on the zero-copy path:
// ownership moves into the engine (the caller's handles go stale at
// this call, per sharing model 1), the payload slice travels to the
// device without a copy, and the engine frees the page at completion.
// The page must hold exactly one block.
func (b *Batch) WriteOwned(block uint64, page own.Owned[[]byte], user uint64) kbase.Errno {
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	moved := page.Move()
	if !moved.Valid() {
		return kbase.EINVAL // stale/freed/borrowed handle; violation already recorded
	}
	var buf []byte
	moved.Read(func(p []byte) { buf = p })
	if len(buf) != b.e.backend.BlockSize() {
		// Wrong-size page: the engine owns it now and must not leak
		// it. Free and reject.
		moved.Free()
		return kbase.EINVAL
	}
	b.e.avoided.Add(1)
	b.enqueue(sqe{op: OpWrite, block: block, buf: buf, owned: true, page: moved}, user)
	return kbase.EOK
}

// Barrier enqueues a flush SQE with IO_DRAIN semantics: it waits for
// every run started before it, on any goroutine, then flushes the
// device, making every earlier write durable before anything after
// the barrier starts.
func (b *Batch) Barrier(user uint64) {
	b.enqueue(sqe{op: OpFlush}, user)
}

func (b *Batch) enqueue(s sqe, user uint64) {
	if ktrace.TimingSample() {
		s.tNs = ktrace.NowNs()
	}
	b.pending = append(b.pending, s)
	b.t.results = append(b.t.results, CQE{Op: s.op, Block: s.block, User: user})
	b.e.submitted.Add(1)
	if tpSubmit.Enabled() {
		tpSubmit.Emit(0, s.block, uint64(s.op))
	}
}

// Submit executes every SQE enqueued since the last Submit, in order,
// on the calling goroutine, and returns the batch's Ticket with all of
// them completed. On a closed engine they complete with ENODEV. With
// a containment gate installed the execution runs inside it; when the
// gate rejects it (contained fault, quarantined engine), every SQE the
// execution did not complete completes with the gate's typed errno —
// each SQE completes exactly once. The executed slots are zeroed
// before Submit returns, so the queue holds no buffer or page of a
// completed SQE.
func (b *Batch) Submit() *Ticket {
	batch, res := b.pending, b.t.results[b.t.submitted:]
	b.pending = b.pending[:0] // executed before Submit returns; reuse the slots
	b.t.submitted = len(b.t.results)
	if len(batch) == 0 {
		return &b.t
	}
	// Zero the executed slots on the way out, a panic included, so a
	// pooled batch pins no page and Release clears only what is pending.
	defer clear(batch)
	e := b.e
	g := e.gate.Load()
	if g == nil {
		e.batches.Add(1)
		e.execute(batch, res)
		return &b.t
	}
	if err := g.Run("submit", func() kbase.Errno {
		e.batches.Add(1)
		e.execute(batch, res)
		return kbase.EOK
	}); err != kbase.EOK {
		for i := range batch {
			if !batch[i].done {
				e.complete(&batch[i], &res[i], err)
			}
		}
	}
	return &b.t
}

// Ticket joins a batch's completions. Submit completes every SQE
// before it returns, so a Ticket needs no synchronization: it belongs
// to the goroutine that owns the batch.
type Ticket struct {
	results   []CQE
	submitted int // slots covered by a Submit so far
}

// Wait returns the CQEs of every SQE submitted so far, in submit
// order. It never blocks. The slice is shared across Wait calls;
// callers must not mutate it.
func (t *Ticket) Wait() []CQE { return t.results[:t.submitted] }

// Err returns the first non-EOK result in submit order (EOK when
// everything succeeded).
func (t *Ticket) Err() kbase.Errno {
	for _, cqe := range t.Wait() {
		if cqe.Err != kbase.EOK {
			return cqe.Err
		}
	}
	return kbase.EOK
}
