// Package journal implements a jbd2-like physical block write-ahead
// journal for the simulated kernel: running transactions with
// handles, write-access tracking on buffer heads, commit records with
// checksums, revoke records, checkpointing, and crash recovery by
// replay.
//
// The on-journal format (one journal block = one device block):
//
//	block 0:        superblock  {magic, seq of oldest live txn, tail ptr}
//	descriptor:     {magic, kind=desc,   seq, count, tags[count]{home}}
//	data blocks:    count raw blocks following the descriptor
//	revoke:         {magic, kind=revoke, seq, count, homes[count]}
//	commit:         {magic, kind=commit, seq, checksum}
//
// A transaction is durable iff its commit block is present with a
// matching checksum — exactly jbd2's commit criterion; recovery
// replays committed transactions in sequence order and stops at the
// first torn or stale record, honoring revoke records. Sequence
// numbers only increase; a number may be skipped.
//
// Buffers join a transaction through the bufcache.MetaRef capability
// (only the cache can mint one), and the journal's per-buffer state
// rides in the typed JournalSeq breadcrumb rather than a void*-style
// any field — the audited replacements for jbd2's b_private idiom.
package journal

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sync"

	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/own"
)

// Tracepoints (args documented in DESIGN.md's catalog).
var (
	tpBegin      = ktrace.New("journal:begin")      // a0=txn seq
	tpCommit     = ktrace.New("journal:commit")     // a0=txn seq, a1=blocks logged, a2=errno
	tpCheckpoint = ktrace.New("journal:checkpoint") // a0=new tail seq
)

// Latency-plane ops (exported as journal.commit_ns and
// journal.checkpoint_ns histograms; span children of the caller's
// trace).
var (
	opCommit     = ktrace.NewOp("journal:commit")
	opCheckpoint = ktrace.NewOp("journal:checkpoint")
)

// Block kinds within the journal area.
const (
	magic        = 0x6A424432 // "jBD2"
	kindSuper    = 1
	kindDesc     = 2
	kindCommit   = 3
	kindRevoke   = 4
	headerBytes  = 16              // magic(4) kind(4) seq(8)
	recordHeader = headerBytes + 4 // header, then count (or commit checksum)
)

// Journal manages a contiguous journal region of the block device
// underlying cache.
type Journal struct {
	cache *bufcache.Cache
	start uint64 // first journal block (superblock)
	size  uint64 // journal region length in blocks

	mu       sync.Mutex
	cond     *sync.Cond // signaled on handle drain and gate release
	seq      uint64     // next transaction sequence number
	tailSeq  uint64     // oldest not-yet-checkpointed sequence
	writePos uint64     // next free journal block (offset within region)
	running  *Tx
	// spare is the last finished transaction, kept with its buffer
	// list and block set emptied but not shrunk, so the next Start
	// reuses them and a commit's size costs no allocation.
	spare *Tx

	// gate is the commit/checkpoint barrier: while set, Begin blocks,
	// so no new handle can mutate a buffer whose data is being written
	// to the journal or synced by a checkpoint. gateSeq is the
	// sequence being committed (0 for a checkpoint gate); lastDoneSeq
	// and lastErr publish the outcome of the last finished commit so
	// that concurrent Commit callers — whose updates rode in that
	// transaction — can return its result (group commit).
	gate        bool
	gateSeq     uint64
	lastDoneSeq uint64
	lastErr     kbase.Errno

	// stats counts journal activity.
	stats struct {
		Commits, BlocksLogged, Checkpoints, Replayed, Revokes uint64
	}
}

// Tx is a running transaction.
type Tx struct {
	j       *Journal
	seq     uint64
	buffers []*bufcache.BufferHead
	inTx    map[uint64]bool // home blocks already joined
	revokes []uint64
	handles int
	closed  bool
}

// Handle is a file-system-side reference to the running transaction
// (journal_start/journal_stop). The zero Handle is unstarted; Start
// fills one the caller owns, so a caller that keeps its handles (jbd2
// takes them from a slab) opens a transaction without allocating.
type Handle struct {
	tx   *Tx
	done bool
	used bool // joined a buffer or revoked a block
}

// New creates a journal over blocks [start, start+size) of cache's
// device. size must be at least 4 blocks.
func New(cache *bufcache.Cache, start, size uint64) *Journal {
	if size < 4 {
		panic("journal: region too small")
	}
	j := &Journal{
		cache:   cache,
		start:   start,
		size:    size,
		seq:     1,
		tailSeq: 1,
		lastErr: kbase.EOK,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// CollectMetrics enumerates the journal counters for the ktrace
// metrics registry (register with m.Register("journal", j.CollectMetrics)).
func (j *Journal) CollectMetrics(emit func(name string, value uint64)) {
	j.mu.Lock()
	st := j.stats
	j.mu.Unlock()
	emit("commits", st.Commits)
	emit("blocks_logged", st.BlocksLogged)
	emit("checkpoints", st.Checkpoints)
	emit("replayed", st.Replayed)
	emit("revokes", st.Revokes)
}

// tagsPerBlock is how many home-block numbers one descriptor or
// revoke block holds.
func (j *Journal) tagsPerBlock() int {
	return (j.cache.Device().BlockSize() - recordHeader) / 8
}

// TxCapacity returns how many buffers one transaction can log: no more
// than the descriptor block has tags for, and few enough that
// descriptor, data, revoke and commit blocks fit in the region after
// the superblock. GetWriteAccess refuses a buffer past it with ENOSPC,
// so an operation that must not fail halfway checks its footprint
// against TxCapacity before it modifies anything.
func (j *Journal) TxCapacity() int {
	return min(j.tagsPerBlock(), int(j.size)-4)
}

// Format initializes the journal superblock on disk.
func (j *Journal) Format() kbase.Errno {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq, j.tailSeq, j.writePos = 1, 1, 1
	return j.writeSuperLocked()
}

// writeSuperLocked writes the journal superblock through the cache's
// kio engine, closed by a barrier SQE: the new tail is durable when it
// returns.
func (j *Journal) writeSuperLocked() kbase.Errno {
	buf := j.recordBlock(kindSuper, j.tailSeq, 0, nil)
	b := j.cache.Engine().NewBatch()
	defer b.Release()
	if err := b.WriteOwned(j.start, own.New(nil, "journal:super", buf), 0); err != kbase.EOK {
		return err
	}
	b.Barrier(0)
	return b.Submit().Err()
}

// recordBlock encodes one journal control block into a page of the
// cache's kio engine, which a write then moves back to the device: the header, then word
// (the entry count of a descriptor or revoke block, the body checksum
// of a commit block), then one tag per home block. GetWriteAccess and
// Revoke keep a transaction within tagsPerBlock, so the tags always
// fit.
func (j *Journal) recordBlock(kind uint32, seq uint64, word uint32, homes []uint64) []byte {
	buf := j.cache.Engine().Page()
	clear(buf)
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], kind)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[headerBytes:], word)
	for i, home := range homes {
		binary.LittleEndian.PutUint64(buf[recordHeader+8*i:], home)
	}
	return buf
}

// descriptor encodes tx's descriptor block.
func (j *Journal) descriptor(tx *Tx) []byte {
	buf := j.recordBlock(kindDesc, tx.seq, uint32(len(tx.buffers)), nil)
	for i, bh := range tx.buffers {
		binary.LittleEndian.PutUint64(buf[recordHeader+8*i:], bh.Block)
	}
	return buf
}

// Begin opens a new handle on the running transaction (see Start).
func (j *Journal) Begin() *Handle {
	h := new(Handle)
	j.Start(h)
	return h
}

// Start opens h on the running transaction, creating one if needed
// (journal_start); whatever h held before is overwritten. While a
// commit or checkpoint is in flight Start blocks, so a new handle can
// never mutate buffer data that the journal is concurrently writing
// out — the jbd2 analogue of starting the next transaction only once
// the previous one is locked down. A transaction stays running until a
// commit closes it, so handles that journal nothing keep joining the
// same one.
func (j *Journal) Start(h *Handle) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.gate {
		j.cond.Wait()
	}
	if j.running == nil {
		tx := j.spare
		if tx == nil {
			tx = &Tx{j: j, inTx: make(map[uint64]bool)}
		}
		j.spare = nil
		tx.seq, tx.closed = j.seq, false
		j.running = tx
		j.seq++
	}
	j.running.handles++
	tpBegin.Emit(0, j.running.seq, 0)
	*h = Handle{tx: j.running}
}

// Used reports whether the handle joined a buffer to its transaction
// or revoked a block. A handle that did neither left the transaction
// as it found it, so its caller has nothing to commit: journal_stop
// does not commit either.
func (h *Handle) Used() bool { return h.used }

// GetWriteAccess declares intent to modify the referenced buffer
// under this handle (jbd2_journal_get_write_access). The buffer joins
// the transaction. Taking a bufcache.MetaRef instead of the raw
// *BufferHead keeps the shared struct from crossing the package
// boundary: only the cache can mint the capability. A transaction
// already at TxCapacity refuses a new buffer with ENOSPC, before the
// caller has modified it.
func (h *Handle) GetWriteAccess(ref bufcache.MetaRef) kbase.Errno {
	if h.done {
		kbase.Oops(kbase.OopsUseAfterFree, "journal", "write access on closed handle")
		return kbase.EINVAL
	}
	if !ref.Valid() {
		kbase.Oops(kbase.OopsSemantic, "journal", "write access with nil buffer capability")
		return kbase.EINVAL
	}
	bh := ref.Head()
	tx := h.tx
	tx.j.mu.Lock()
	defer tx.j.mu.Unlock()
	if tx.closed {
		return kbase.EBUSY
	}
	if !tx.inTx[bh.Block] {
		if len(tx.buffers) >= tx.j.TxCapacity() {
			return kbase.ENOSPC
		}
		// A block freed and revoked earlier in this transaction is
		// metadata again: cancel the revoke, or recovery would skip the
		// copy logged here (jbd2_journal_cancel_revoke).
		tx.revokes = slices.DeleteFunc(tx.revokes, func(home uint64) bool { return home == bh.Block })
		tx.inTx[bh.Block] = true
		tx.buffers = append(tx.buffers, bh)
		bh.SetJournalSeq(tx.seq) // typed b_private-style breadcrumb
	}
	h.used = true
	return kbase.EOK
}

// DirtyMetadata marks the referenced buffer as journal-dirty metadata
// (jbd2_journal_dirty_metadata). The buffer must have joined the
// transaction first; violating that protocol is a semantic oops, as
// jbd2 would J_ASSERT.
func (h *Handle) DirtyMetadata(ref bufcache.MetaRef) kbase.Errno {
	if !ref.Valid() {
		kbase.Oops(kbase.OopsSemantic, "journal", "dirty_metadata with nil buffer capability")
		return kbase.EINVAL
	}
	bh := ref.Head()
	tx := h.tx
	tx.j.mu.Lock()
	joined := tx.inTx[bh.Block]
	tx.j.mu.Unlock()
	if !joined {
		kbase.Oops(kbase.OopsSemantic, "journal",
			"dirty_metadata on block %d without write access", bh.Block)
		return kbase.EINVAL
	}
	bh.SetFlag(bufcache.BHMeta)
	bh.MarkDirty()
	return kbase.EOK
}

// Revoke records that home block must not be replayed by any earlier
// transaction's log entries (jbd2_journal_revoke) — used when a
// metadata block is freed and may be reused for data. A transaction
// whose revoke block is full refuses with ENOSPC.
func (h *Handle) Revoke(home uint64) kbase.Errno {
	if h.done {
		kbase.Oops(kbase.OopsUseAfterFree, "journal", "revoke on closed handle")
		return kbase.EINVAL
	}
	tx := h.tx
	tx.j.mu.Lock()
	defer tx.j.mu.Unlock()
	if tx.closed {
		return kbase.EBUSY
	}
	if len(tx.revokes) >= tx.j.tagsPerBlock() {
		return kbase.ENOSPC
	}
	tx.revokes = append(tx.revokes, home)
	tx.j.stats.Revokes++
	h.used = true
	return kbase.EOK
}

// Stop closes the handle (journal_stop). The transaction commits when
// Commit is called on the journal.
func (h *Handle) Stop() {
	if h.done {
		return
	}
	h.done = true
	j := h.tx.j
	j.mu.Lock()
	h.tx.handles--
	if h.tx.handles == 0 {
		j.cond.Broadcast() // wake committers waiting for the drain
	}
	j.mu.Unlock()
}

// CommitCtx force-commits the running transaction synchronously
// (jbd2_journal_force_commit): write data+descriptor+revoke blocks,
// flush, write commit block, flush again — all through the cache's kio
// engine. The commit writes the log only: the logged buffers stay
// dirty metadata in the cache, and the next checkpoint writes each
// home once however many transactions logged it (jbd2's checkpoint
// list). A transaction that joined no buffer and revoked nothing
// commits with no I/O; its sequence number is used up, and recovery
// accepts the forward gap.
//
// Under concurrency this is a blocking group commit: if other tasks
// still hold open handles on the transaction, CommitCtx waits for them
// to Stop (their updates then ride in this commit); if another task
// is already committing the transaction our updates are in, CommitCtx
// waits for that commit and returns its outcome. The whole group
// commit — including any wait for the in-flight round — is timed into
// the journal:commit histogram and spanned as a child of the caller's
// trace.
func (j *Journal) CommitCtx(task *kbase.Task) kbase.Errno {
	t := opCommit.Begin(task)
	defer t.End()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.gate {
			// A commit or checkpoint is in flight. Our caller's
			// updates, if any, are in that transaction or an earlier
			// one (Begin blocks while gated, so nothing newer can
			// exist yet). Wait for the round and report its result.
			seq := j.gateSeq
			for j.gate && j.gateSeq == seq {
				j.cond.Wait()
			}
			if seq != 0 && j.lastDoneSeq == seq {
				return j.lastErr
			}
			continue // checkpoint gate, or tx reinstated on ENOSPC
		}
		tx := j.running
		if tx == nil {
			return kbase.EOK // nothing to commit
		}
		// Become the committer: raise the gate (no new Begins), then
		// wait for live handles to drain.
		j.gate = true
		j.gateSeq = tx.seq
		for tx.handles > 0 {
			j.cond.Wait()
		}
		return j.commitGatedLocked(task, tx)
	}
}

// commitGatedLocked closes tx and writes it out. Caller holds j.mu and
// the gate; tx has no open handles. The gate is released before
// returning.
func (j *Journal) commitGatedLocked(task *kbase.Task, tx *Tx) kbase.Errno {
	tx.closed = true
	j.running = nil

	err := kbase.EOK
	if len(tx.buffers) > 0 || len(tx.revokes) > 0 {
		// Needed journal blocks: descriptor + data + optional revoke + commit.
		needed := uint64(1 + len(tx.buffers) + 1)
		if len(tx.revokes) > 0 {
			needed++
		}
		if j.writePos+needed > j.size {
			// Out of journal space; require a checkpoint first. A real
			// jbd2 would block; we surface ENOSPC and the caller
			// checkpoints. Reinstate the transaction.
			tx.closed = false
			j.running = tx
			j.gate = false
			j.cond.Broadcast()
			return kbase.ENOSPC
		}
		var end uint64
		if end, err = j.writeLogLocked(task, tx, j.start+j.writePos); err == kbase.EOK {
			j.writePos = end - j.start
			j.stats.Commits++
		}
		tpCommit.Emit4(0, tx.seq, uint64(len(tx.buffers)), uint64(err), 0)
	}
	// The buffers leave the transaction. Its sequence number stays
	// used, so lastDoneSeq never names a later transaction.
	for _, bh := range tx.buffers {
		bh.ClearJournalSeq()
	}
	j.lastDoneSeq = tx.seq
	j.lastErr = err
	// Every handle on tx has stopped, and a stopped handle touches its
	// transaction no more, so tx can serve the next Start.
	clear(tx.buffers)
	tx.buffers = tx.buffers[:0]
	clear(tx.inTx)
	tx.revokes = tx.revokes[:0]
	j.spare = tx
	j.gate = false
	j.cond.Broadcast()
	return err
}

// writeLogLocked writes tx's log at pos through the cache's kio engine
// and returns the block after it. Every commit reaches the device in
// one order: the data blocks, the descriptor and any revoke block as
// one submit closed by a barrier SQE, then the commit record in a
// second submit of the same batch with its own barrier — the jbd2
// ordering (body durable before the commit record, commit record
// durable before Commit returns). Caller holds j.mu and the gate; the
// gate is what lets the engine read bh.Data without a copy racing
// anything — no handle can mutate a committing buffer.
func (j *Journal) writeLogLocked(task *kbase.Task, tx *Tx, pos uint64) (uint64, kbase.Errno) {
	bt := kio.OpBatch.Begin(task)
	defer bt.End()
	var crc uint32

	b := j.cache.Engine().NewBatch()
	defer b.Release()
	next := pos + 1
	var err kbase.Errno = kbase.EOK
	for _, bh := range tx.buffers {
		if err = b.Write(next, bh.Data, 0); err != kbase.EOK {
			break
		}
		crc = crc32.Update(crc, crc32.IEEETable, bh.Data)
		j.stats.BlocksLogged++
		next++
	}
	// Descriptor and revoke blocks are journal-owned buffers never
	// touched again after submit: move them into the engine (§4.3
	// zero-copy submission) instead of copying.
	if err == kbase.EOK {
		err = b.WriteOwned(pos, own.New(nil, "journal:desc", j.descriptor(tx)), 0)
	}
	if err == kbase.EOK && len(tx.revokes) > 0 {
		rev := j.recordBlock(kindRevoke, tx.seq, uint32(len(tx.revokes)), tx.revokes)
		err = b.WriteOwned(next, own.New(nil, "journal:revoke", rev), 0)
		next++
	}
	// Barrier: journal body durable before the commit record. After an
	// enqueue failure the batch still runs what it holds, so every moved
	// page is freed, but no commit record follows.
	b.Barrier(0)
	if e := b.Submit().Err(); err == kbase.EOK {
		err = e
	}
	if err != kbase.EOK {
		return 0, err
	}

	// Commit record, with its own completion dependency.
	com := j.recordBlock(kindCommit, tx.seq, crc, nil)
	if err := b.WriteOwned(next, own.New(nil, "journal:commit", com), 0); err != kbase.EOK {
		return 0, err
	}
	b.Barrier(0)
	return next + 1, b.Submit().Err()
}

// Checkpoint makes all home locations durable and resets the journal
// region (jbd2 checkpoint + journal tail update): it syncs every dirty
// buffer of the cache, so each metadata block committed since the last
// checkpoint is written home once, however many transactions logged
// it. Only then may the tail pass those transactions. It quiesces the
// journal first — new Begins block and live handles drain — so the
// writeback pass cannot race buffer mutations made under a handle.
func (j *Journal) Checkpoint() kbase.Errno { return j.CheckpointCtx(nil) }

// CheckpointCtx is Checkpoint with task context: timed into the
// journal:checkpoint histogram, with the dirty-buffer sync appearing
// as a bufcache child span.
func (j *Journal) CheckpointCtx(task *kbase.Task) kbase.Errno {
	t := opCheckpoint.Begin(task)
	defer t.End()
	j.mu.Lock()
	for j.gate {
		j.cond.Wait()
	}
	j.gate = true
	j.gateSeq = 0
	for j.running != nil && j.running.handles > 0 {
		j.cond.Wait()
	}
	j.mu.Unlock()

	err := j.cache.SyncDirtyCtx(task)

	j.mu.Lock()
	defer func() {
		j.gate = false
		j.cond.Broadcast()
		j.mu.Unlock()
	}()
	if err != kbase.EOK {
		return err
	}
	// The tail must not exclude a transaction that is still running:
	// it will commit with its already-assigned sequence, and recovery
	// only replays sequences at or above the tail.
	j.tailSeq = j.seq
	if j.running != nil {
		j.tailSeq = j.running.seq
	}
	j.writePos = 1
	j.stats.Checkpoints++
	tpCheckpoint.Emit(0, j.tailSeq, 0)
	return j.writeSuperLocked()
}

// Recover scans the journal and replays every fully-committed
// transaction newer than the on-disk tail, honoring revoke records.
// It returns the number of replayed transactions. Call on mount after
// an unclean shutdown; it is idempotent.
func (j *Journal) Recover() (int, kbase.Errno) {
	j.mu.Lock()
	defer j.mu.Unlock()
	dev := j.cache.Device()
	bs := dev.BlockSize()
	buf := make([]byte, bs)
	maxTags := uint32(j.tagsPerBlock())

	// Read superblock for the tail sequence.
	if err := dev.Read(j.start, buf); err != kbase.EOK {
		return 0, err
	}
	if binary.LittleEndian.Uint32(buf[0:]) != magic ||
		binary.LittleEndian.Uint32(buf[4:]) != kindSuper {
		return 0, kbase.EUCLEAN
	}
	tail := binary.LittleEndian.Uint64(buf[8:])

	// Pass 1: scan for committed transactions and revokes.
	type txRecord struct {
		seq   uint64
		homes []uint64
		data  [][]byte
	}
	var committed []txRecord
	revoked := make(map[uint64]uint64)
	pos := j.start + 1
	end := j.start + j.size
	expectSeq := tail
	for pos < end {
		if err := dev.Read(pos, buf); err != kbase.EOK {
			break
		}
		if binary.LittleEndian.Uint32(buf[0:]) != magic ||
			binary.LittleEndian.Uint32(buf[4:]) != kindDesc {
			break
		}
		seq := binary.LittleEndian.Uint64(buf[8:])
		if seq < expectSeq {
			break
		}
		count := binary.LittleEndian.Uint32(buf[headerBytes:])
		if uint64(count) > j.size || count > maxTags {
			break // corrupt descriptor
		}
		rec := txRecord{seq: seq}
		for i := uint32(0); i < count; i++ {
			rec.homes = append(rec.homes, binary.LittleEndian.Uint64(buf[recordHeader+8*i:]))
		}
		pos++
		crc := crc32.NewIEEE()
		ok := true
		for i := uint32(0); i < count && pos < end; i++ {
			data := make([]byte, bs)
			if err := dev.Read(pos, data); err != kbase.EOK {
				ok = false
				break
			}
			rec.data = append(rec.data, data)
			crc.Write(data)
			pos++
		}
		if !ok || len(rec.data) != len(rec.homes) {
			break
		}
		// Optional revoke block.
		var txRevokes []uint64
		if pos < end {
			if err := dev.Read(pos, buf); err != kbase.EOK {
				break
			}
			if binary.LittleEndian.Uint32(buf[0:]) == magic &&
				binary.LittleEndian.Uint32(buf[4:]) == kindRevoke &&
				binary.LittleEndian.Uint64(buf[8:]) == seq {
				n := binary.LittleEndian.Uint32(buf[headerBytes:])
				if n > maxTags {
					break // corrupt revoke block
				}
				for i := uint32(0); i < n; i++ {
					txRevokes = append(txRevokes, binary.LittleEndian.Uint64(buf[recordHeader+8*i:]))
				}
				pos++
			}
		}
		// Commit block.
		if pos >= end {
			break
		}
		if err := dev.Read(pos, buf); err != kbase.EOK {
			break
		}
		if binary.LittleEndian.Uint32(buf[0:]) != magic ||
			binary.LittleEndian.Uint32(buf[4:]) != kindCommit ||
			binary.LittleEndian.Uint64(buf[8:]) != seq ||
			binary.LittleEndian.Uint32(buf[headerBytes:]) != crc.Sum32() {
			break // uncommitted or torn: stop replay here
		}
		pos++
		committed = append(committed, rec)
		for _, r := range txRevokes {
			revoked[r] = seq
		}
		expectSeq = seq + 1
	}

	// Pass 2: replay, honoring revokes (a block revoked at seq R is
	// not replayed from any transaction with seq <= R).
	replayed := 0
	for _, rec := range committed {
		for i, home := range rec.homes {
			if rSeq, ok := revoked[home]; ok && rec.seq <= rSeq {
				continue
			}
			if err := dev.Write(home, rec.data[i]); err != kbase.EOK {
				return replayed, err
			}
			j.stats.Replayed++
		}
		replayed++
	}
	if replayed > 0 {
		if err := dev.Flush(); err != kbase.EOK {
			return replayed, err
		}
	}
	// Reset the journal: everything durable now.
	if len(committed) > 0 {
		j.tailSeq = committed[len(committed)-1].seq + 1
	} else {
		j.tailSeq = tail
	}
	j.seq = j.tailSeq
	j.writePos = 1
	if err := j.writeSuperLocked(); err != kbase.EOK {
		return replayed, err
	}
	return replayed, kbase.EOK
}
