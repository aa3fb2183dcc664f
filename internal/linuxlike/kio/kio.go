// Package kio is an io_uring-style block I/O engine over the
// simulated device stack: callers enqueue read/write/flush
// submission-queue entries (SQEs) on a Batch, and Submit executes them
// in order on the calling goroutine, each SQE straight on the device,
// and publishes every completion (CQE) into the batch's Ticket for
// Wait/Err-style joins. It is the only block path of the journal's
// commit and superblock writes and of the buffer cache's writeback.
//
// The engine exists to turn the paper's §4.3 performance claim into a
// measured number: ownership-sharing interfaces are semantically
// equivalent to message passing but avoid the copies. The legacy
// submit path (Batch.Write) defensively copies the payload exactly
// once, like every synchronous blockdev.Write does; the ownership
// path (Batch.WriteOwned) instead *moves* an own.Owned page into the
// engine — the caller's handles go stale at the move and the engine
// fulfils the model-1 free obligation at completion — and the payload
// reaches the device's durable image with zero copies.
// The bytes_copied, copies_performed and copies_avoided counters
// (CollectMetrics) count both paths, so the claim is counter-verified
// rather than asserted.
//
// Barrier SQEs (Batch.Barrier) are the io_uring IO_DRAIN analogue: a
// flush waits for every run that started earlier on any goroutine,
// flushes the device, and holds back runs that start after it. The
// journal's commit hangs its commit-record ordering off exactly this.
package kio

import (
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
	"safelinux/internal/safety/own"
)

// Tracepoints (args documented in DESIGN.md's catalog).
var (
	tpSubmit   = ktrace.New("kio:submit")   // a0=block, a1=op
	tpComplete = ktrace.New("kio:complete") // a0=block, a1=errno
	tpBarrier  = ktrace.New("kio:barrier")  // a0=SQEs ahead of the barrier in its batch
)

// OpBatch is the latency-plane op for one submit→wait batch (exported
// so the journal's commit and the buffer cache's sync can span their
// batches as children of the caller's trace).
var OpBatch = ktrace.NewOp("kio:batch")

// Op is the SQE operation code.
type Op uint8

// SQE operation codes.
const (
	OpRead  Op = iota // read one block into the caller's buffer
	OpWrite           // write one block (copying or ownership-move)
	OpFlush           // barrier: drain, then device flush
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	}
	return "?"
}

// Backend is the device the engine drives — the same shape as
// spec.DiskLike, so both the raw blockdev and the verified-stack
// AxiomaticDisk plug in. When the concrete backend additionally
// implements WriteOwned (zero-copy submission), the engine detects and
// uses that fast path dynamically.
type Backend interface {
	BlockSize() int
	Blocks() uint64
	Read(block uint64, buf []byte) kbase.Errno
	Write(block uint64, data []byte) kbase.Errno
	Flush() kbase.Errno
}

// ownedWriter is the optional zero-copy submission fast path
// (blockdev.Device implements it).
type ownedWriter interface {
	WriteOwned(block uint64, data []byte) kbase.Errno
}

// pageSource is the optional page supply of an ownedWriter: Batch.Write
// copies into one of its pages, which WriteOwned then takes back, so
// the copy allocates nothing (blockdev.Device recycles the images a
// flush replaces).
type pageSource interface {
	Page() []byte
}

// CQE is one completion-queue entry.
type CQE struct {
	Op    Op
	Block uint64
	User  uint64 // the submitter's tag, returned verbatim
	Err   kbase.Errno
}

// sqe is one submission-queue entry, engine-internal. The Batch holds
// it by value; it completes into the CQE at the same position.
type sqe struct {
	buf   []byte // read destination or write payload (engine-owned for writes)
	page  own.Owned[[]byte]
	block uint64
	tNs   int64 // submit timestamp for the sqe latency histogram (0 = unsampled)
	op    Op
	owned bool // write payload arrived by ownership move
	done  bool // completed; a failed execution completes only the rest
}

// Engine is the I/O engine. All methods are safe for concurrent use;
// individual Batches are single-goroutine state.
type Engine struct {
	backend Backend
	ow      ownedWriter // nil when backend lacks the zero-copy path
	pages   pageSource  // nil unless ow is set and backend supplies pages

	// free holds released batches for NewBatch. A free list rather
	// than a sync.Pool: a batch survives garbage collection, so a
	// steady submitter never pays for one.
	free *kbase.FreeList[*Batch]

	// drain orders execution across submitters (IO_DRAIN): a run of
	// reads and writes holds it shared, a flush holds it exclusive, so
	// a flush waits for every run already started and runs that start
	// later wait for the flush. closed is guarded by it.
	drain  sync.RWMutex
	closed bool

	// gate, when installed, wraps batch execution in a
	// crash-containment compartment (see boundary.go).
	gate atomic.Pointer[gate.Gate]

	// Counters. copied and copies cover the legacy copying submit
	// path; avoided counts ownership-move submits that would each have
	// copied one block on that path — the §4.3 zero-copy claim is the
	// pair (copies_avoided > 0, bytes_copied unchanged).
	submitted atomic.Uint64 // SQEs accepted
	completed atomic.Uint64 // CQEs published
	batches   atomic.Uint64 // Submit calls that executed at least one SQE
	barriers  atomic.Uint64 // flush SQEs executed
	copied    atomic.Uint64 // payload bytes copied by Batch.Write
	copies    atomic.Uint64 // Batch.Write submissions (one copy each)
	avoided   atomic.Uint64 // Batch.WriteOwned submissions (zero copies)

	// sqeHist is the submit-to-complete latency distribution of
	// sampled SQEs (see ktrace.TimingSample), exported as the
	// kio.sqe_ns histogram metric.
	sqeHist *ktrace.Histogram
}

// New returns an engine over backend. It starts no goroutine: every
// batch executes on the goroutine that submits it.
func New(backend Backend) *Engine {
	e := &Engine{backend: backend, free: kbase.NewFreeList[*Batch](freeBatches), sqeHist: ktrace.NewHistogram()}
	e.ow, _ = backend.(ownedWriter)
	if e.ow != nil {
		e.pages, _ = backend.(pageSource)
	}
	return e
}

// Close waits for executions in progress and stops the engine:
// submissions after Close complete with ENODEV. Close is idempotent.
func (e *Engine) Close() {
	e.drain.Lock()
	e.closed = true
	e.drain.Unlock()
}

// CollectMetrics enumerates the engine counters for the ktrace metrics
// registry (register with m.Register("kio", e.CollectMetrics)).
func (e *Engine) CollectMetrics(emit func(name string, value uint64)) {
	emit("submitted", e.submitted.Load())
	emit("completed", e.completed.Load())
	emit("batches", e.batches.Load())
	emit("barriers", e.barriers.Load())
	emit("bytes_copied", e.copied.Load())
	emit("copies_performed", e.copies.Load())
	emit("copies_avoided", e.avoided.Load())
}

// execute runs batch in submit order on the calling goroutine,
// completing batch[i] into res[i]: each maximal run of reads and writes
// under the shared drain lock, each flush on its own.
func (e *Engine) execute(batch []sqe, res []CQE) {
	for i := 0; i < len(batch); {
		if batch[i].op == OpFlush {
			e.flush(&batch[i], &res[i], i)
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && batch[j].op != OpFlush {
			j++
		}
		e.run(batch[i:j], res[i:j])
		i = j
	}
}

// flush executes one barrier SQE: it takes the drain lock exclusively,
// so every run started earlier has finished and none starts until the
// device flush returns.
func (e *Engine) flush(s *sqe, cqe *CQE, ahead int) {
	e.drain.Lock()
	defer e.drain.Unlock()
	if e.closed {
		e.complete(s, cqe, kbase.ENODEV)
		return
	}
	tpBarrier.Emit(0, uint64(ahead), 0)
	e.barriers.Add(1)
	e.complete(s, cqe, e.backend.Flush())
}

// run executes one run of reads and writes in order, each directly on
// the backend, so a read of a just-written block observes the write
// through the device cache exactly as the synchronous call sequence
// would.
func (e *Engine) run(g []sqe, res []CQE) {
	e.drain.RLock()
	defer e.drain.RUnlock()
	for i := range g {
		s := &g[i]
		var err kbase.Errno
		switch {
		case e.closed:
			err = kbase.ENODEV
		case s.op == OpRead:
			err = e.backend.Read(s.block, s.buf)
		case e.ow != nil:
			err = e.ow.WriteOwned(s.block, s.buf)
		default:
			// Copying backend: it copies internally; the engine still
			// submitted without one.
			err = e.backend.Write(s.block, s.buf)
		}
		e.complete(s, &res[i], err)
	}
}

// SQEHist returns the engine's submit-to-complete latency histogram.
func (e *Engine) SQEHist() *ktrace.Histogram { return e.sqeHist }

// complete publishes one completion into its CQE slot. Each SQE
// completes exactly once.
func (e *Engine) complete(s *sqe, cqe *CQE, err kbase.Errno) {
	s.done = true
	if s.tNs != 0 {
		e.sqeHist.Record(uint64(ktrace.NowNs() - s.tNs))
	}
	if s.owned {
		// Model-1 obligation: the engine received ownership at submit
		// and must free it.
		s.page.Free()
	}
	e.completed.Add(1)
	if tpComplete.Enabled() {
		tpComplete.Emit(0, s.block, uint64(err))
	}
	cqe.Err = err
}
