package kio

import (
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

// Batch is a submission queue under construction: enqueue SQEs, then
// Submit to execute them. A Batch is single-goroutine state; Submit
// may be called repeatedly (each call executes the SQEs enqueued since
// the last one) and every call returns the same Ticket.
type Batch struct {
	e       *Engine
	pending []*sqe
	t       Ticket
	// lastWrite maps block -> the most recent un-superseded pending
	// write, for duplicate-block merge (allocated on the first write).
	// A read of the block or a barrier pins earlier writes (clears the
	// entry): the read must observe the earlier write through the
	// device cache, and a barrier promises its durability.
	lastWrite map[uint64]*sqe
}

// NewBatch starts an empty batch.
func (e *Engine) NewBatch() *Batch {
	return &Batch{e: e}
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
	delete(b.lastWrite, block)
	b.enqueue(&sqe{op: OpRead, block: block, user: user, buf: buf})
	return kbase.EOK
}

// Write enqueues a write of data to block on the legacy copying path:
// the batch copies data now (the caller may reuse the buffer
// immediately), exactly the one defensive copy every synchronous
// blockdev.Write performs. Stats().BytesCopied accounts it.
func (b *Batch) Write(block uint64, data []byte, user uint64) kbase.Errno {
	if len(data) != b.e.backend.BlockSize() {
		return kbase.EINVAL
	}
	if block >= b.e.backend.Blocks() {
		return kbase.EINVAL
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.e.copied.Add(uint64(len(cp)))
	b.e.copies.Add(1)
	b.enqueueWrite(&sqe{op: OpWrite, block: block, user: user, buf: cp})
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
	b.enqueueWrite(&sqe{op: OpWrite, block: block, user: user, buf: buf, owned: true, page: moved})
	return kbase.EOK
}

// Barrier enqueues a flush SQE with IO_DRAIN semantics: it waits for
// every run started before it, on any goroutine, then flushes the
// device, making every earlier write durable before anything after
// the barrier starts.
func (b *Batch) Barrier(user uint64) {
	clear(b.lastWrite)
	b.enqueue(&sqe{op: OpFlush, user: user})
}

// enqueueWrite enqueues a write SQE, merging a duplicate-block
// predecessor: if an earlier write to the same block is still pending
// in this batch with no read of the block or barrier between, the
// earlier SQE completes immediately as Merged (its payload can never
// be observed — the device write cache is last-write-wins and no
// barrier pinned it).
func (b *Batch) enqueueWrite(s *sqe) {
	if prev, ok := b.lastWrite[s.block]; ok {
		for i, p := range b.pending {
			if p == prev {
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				b.e.completeMerged(prev)
				break
			}
		}
	}
	if b.lastWrite == nil {
		b.lastWrite = make(map[uint64]*sqe)
	}
	b.lastWrite[s.block] = s
	b.enqueue(s)
}

func (b *Batch) enqueue(s *sqe) {
	s.t = &b.t
	s.idx = len(b.t.results)
	b.t.results = append(b.t.results, CQE{})
	if ktrace.TimingSample() {
		s.tNs = ktrace.NowNs()
	}
	b.pending = append(b.pending, s)
	b.e.submitted.Add(1)
	if tpSubmit.Enabled() {
		tpSubmit.Emit(0, s.block, uint64(s.op))
	}
}

// Submit executes every SQE enqueued since the last Submit, in order,
// on the calling goroutine, and returns the batch's Ticket with all of
// them completed. On a closed engine they complete with ENODEV. With
// a containment boundary installed the execution runs inside it; when
// the boundary rejects it (contained fault, quarantined engine), every
// SQE the execution did not complete completes with the boundary's
// typed errno — each SQE completes exactly once.
func (b *Batch) Submit() *Ticket {
	batch := b.pending
	b.pending = nil
	clear(b.lastWrite)
	b.t.submitted = len(b.t.results)
	if len(batch) == 0 {
		return &b.t
	}
	e := b.e
	box := e.boundary.Load()
	if box == nil {
		e.batches.Add(1)
		e.execute(batch)
		return &b.t
	}
	if err := box.b.Run("submit", func() kbase.Errno {
		e.batches.Add(1)
		e.execute(batch)
		return kbase.EOK
	}); err != kbase.EOK {
		for _, s := range batch {
			if !s.done {
				e.complete(s, err)
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
