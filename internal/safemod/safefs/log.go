package safefs

import (
	"encoding/binary"
	"hash/crc32"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

// store is the persistence engine: checkpoint regions + redo log.
//
// Durability protocol (the structural crash-safety argument):
//
//   - every mutation appends exactly one checksummed record with a
//     strictly increasing sequence number; the record is flushed
//     before the operation is acknowledged (SyncOnCommit) or at the
//     next sync;
//   - a checkpoint serializes the full state (covering sequences
//     ≤ ckptSeq) into the inactive region and flushes it BEFORE the
//     log write position is reset, so at every instant at least one
//     complete (checkpoint, log-prefix) pair is on disk;
//   - recovery picks the newest valid checkpoint and replays log
//     records while they are valid, contiguous (seq = ckptSeq+1, +2,
//     ...) — any torn, missing, or stale record ends replay.
//
// Consequence: the recovered state is always the checkpoint state
// advanced by a prefix of acknowledged operations, which is exactly
// the crash spec CheckCrashConsistency validates.
//
// Buffers: a record is encoded straight into img, a block-padded log
// image the store keeps and reuses, so a steady-state append
// allocates nothing. A write's payload is read from the caller once,
// into img; append then points the record's Data at those logged
// bytes, and the live state is updated from them. A checkpoint
// serializes into its own exact-size image, dropped once written:
// img may still hold the record a checkpoint-and-retry is committing.
type store struct {
	disk spec.DiskLike
	sb   superblock

	seq     uint64 // next sequence number to assign
	ckptGen uint64 // generation of the newest on-disk checkpoint
	ckptSeq uint64 // highest sequence covered by that checkpoint
	logPos  uint64 // next free block offset within the log region

	// SyncOnCommit flushes after every record (verified mode).
	syncOnCommit bool

	img []byte // log image of the last record, reused by append
}

// ckptHeader: magic(4) pad(4) gen(8) seq(8) length(8) crc(4).
const ckptHeader = 36

// Format initializes an empty safefs on the disk.
func Format(disk spec.DiskLike) kbase.Errno {
	sb, ok := computeLayout(disk.Blocks(), disk.BlockSize())
	if !ok {
		return kbase.EINVAL
	}
	buf := make([]byte, disk.BlockSize())
	sb.encode(buf)
	if err := disk.Write(0, buf); err != kbase.EOK {
		return err
	}
	// Write an empty generation-1 checkpoint to region A.
	s := &store{disk: disk, sb: sb}
	img, err := s.checkpointImage(newFstate(nil), 1, 0)
	if err != kbase.EOK {
		return err
	}
	if err := s.writeCheckpoint(sb.CkptAStart, img); err != kbase.EOK {
		return err
	}
	return disk.Flush()
}

// openStore mounts the persistence engine: read the superblock, pick
// the newest checkpoint, replay the log. Returns the recovered state.
func openStore(disk spec.DiskLike, checker *own.Checker, syncOnCommit bool) (*store, *fstate, kbase.Errno) {
	bs := disk.BlockSize()
	buf := make([]byte, bs)
	if err := disk.Read(0, buf); err != kbase.EOK {
		return nil, nil, err
	}
	var sb superblock
	if err := sb.decode(buf); err != kbase.EOK {
		return nil, nil, err
	}
	// Every region below is derived from the superblock, so it must be
	// the layout Format gives this device: the one comparison puts each
	// region in range and keeps them apart.
	if want, ok := computeLayout(disk.Blocks(), bs); !ok || sb != want {
		return nil, nil, kbase.EUCLEAN
	}
	s := &store{disk: disk, sb: sb, syncOnCommit: syncOnCommit}

	genA, seqA, payloadA, okA := s.readCheckpoint(sb.CkptAStart)
	genB, seqB, payloadB, okB := s.readCheckpoint(sb.CkptBStart)
	var payload []byte
	switch {
	case okA && (!okB || genA >= genB):
		s.ckptGen, s.ckptSeq, payload = genA, seqA, payloadA
	case okB:
		s.ckptGen, s.ckptSeq, payload = genB, seqB, payloadB
	default:
		return nil, nil, kbase.EUCLEAN // no valid checkpoint at all
	}
	st, err := deserializeState(payload, checker)
	if err != kbase.EOK {
		return nil, nil, err
	}

	// Replay the log: contiguous sequences above the checkpoint.
	s.seq = s.ckptSeq + 1
	s.logPos = 0
	for {
		rec, blocks, err := s.readRecordAt(s.logPos)
		if err != kbase.EOK {
			break // end of valid log
		}
		if rec.Seq != s.seq {
			break // stale or out-of-order: end of this epoch's log
		}
		st.apply(rec) // replay cannot fail differently than live did
		s.seq++
		s.logPos += blocks
	}
	return s, st, kbase.EOK
}

// checkpointImage serializes st into one exact-size image: the
// checkpoint header, then the state, zero-padded to whole blocks.
func (s *store) checkpointImage(st *fstate, gen, seq uint64) ([]byte, kbase.Errno) {
	plan, err := st.planCheckpoint()
	if err != kbase.EOK {
		return nil, err
	}
	bs := s.disk.BlockSize()
	nBlocks := uint64((ckptHeader + plan.size + bs - 1) / bs)
	if nBlocks > s.sb.CkptLen {
		return nil, kbase.ENOSPC
	}
	img := make([]byte, nBlocks*uint64(bs))
	payload := img[ckptHeader : ckptHeader+plan.size]
	if err := st.serialize(plan, payload); err != kbase.EOK {
		return nil, err
	}
	le := binary.LittleEndian
	le.PutUint32(img[0:], Magic)
	le.PutUint64(img[8:], gen)
	le.PutUint64(img[16:], seq)
	le.PutUint64(img[24:], uint64(plan.size))
	crc := crc32.Update(0, crc32.IEEETable, img[0:32])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	le.PutUint32(img[32:], crc)
	return img, kbase.EOK
}

// writeCheckpoint writes a checkpoint image into the region at start.
func (s *store) writeCheckpoint(start uint64, img []byte) kbase.Errno {
	bs := s.disk.BlockSize()
	for i := 0; i*bs < len(img); i++ {
		if err := s.disk.Write(start+uint64(i), img[i*bs:(i+1)*bs]); err != kbase.EOK {
			return err
		}
	}
	return kbase.EOK
}

// readCheckpoint loads and validates one region.
func (s *store) readCheckpoint(start uint64) (gen, seq uint64, payload []byte, ok bool) {
	bs := s.disk.BlockSize()
	buf := make([]byte, bs)
	if err := s.disk.Read(start, buf); err != kbase.EOK {
		return 0, 0, nil, false
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != Magic {
		return 0, 0, nil, false
	}
	gen = le.Uint64(buf[8:])
	seq = le.Uint64(buf[16:])
	length := le.Uint64(buf[24:])
	wantCRC := le.Uint32(buf[32:])
	if length > s.sb.CkptLen*uint64(bs)-ckptHeader {
		return 0, 0, nil, false
	}
	total := ckptHeader + int(length)
	nBlocks := uint64((total + bs - 1) / bs)
	full := make([]byte, nBlocks*uint64(bs))
	copy(full, buf)
	for i := uint64(1); i < nBlocks; i++ {
		if err := s.disk.Read(start+i, full[i*uint64(bs):(i+1)*uint64(bs)]); err != kbase.EOK {
			return 0, 0, nil, false
		}
	}
	payload = full[ckptHeader : ckptHeader+int(length)]
	crc := crc32.NewIEEE()
	crc.Write(full[0:32])
	crc.Write(payload)
	if crc.Sum32() != wantCRC {
		return 0, 0, nil, false
	}
	return gen, seq, payload, true
}

// append logs one record (assigning its sequence number), makes it
// durable per policy, and leaves r.Data pointing at the payload's
// logged bytes in the log image. When the log region fills, the
// caller is expected to checkpoint and retry; the ENOSPC here is
// internal flow control, returned before the record is encoded, so
// the retry is still the payload's only read.
func (s *store) append(r *Record) kbase.Errno {
	r.Seq = s.seq
	bs := s.disk.BlockSize()
	n := r.encodedLen()
	nBlocks := uint64((n + bs - 1) / bs)
	if s.logPos+nBlocks > s.sb.LogLen {
		return kbase.ENOSPC
	}
	size := int(nBlocks) * bs
	if cap(s.img) < size {
		s.img = make([]byte, size)
	}
	img := s.img[:size]
	r.encodeInto(img)
	r.Data = img[n-len(r.Data) : n]
	for i := 0; i < int(nBlocks); i++ {
		if err := s.disk.Write(s.sb.LogStart+s.logPos+uint64(i), img[i*bs:(i+1)*bs]); err != kbase.EOK {
			return err
		}
	}
	if s.syncOnCommit {
		if err := s.disk.Flush(); err != kbase.EOK {
			return err
		}
	}
	s.seq++
	s.logPos += nBlocks
	return kbase.EOK
}

// readRecordAt decodes the record at log offset pos, returning it and
// the number of blocks it occupies.
func (s *store) readRecordAt(pos uint64) (Record, uint64, kbase.Errno) {
	bs := s.disk.BlockSize()
	if pos >= s.sb.LogLen {
		return Record{}, 0, kbase.ENOSPC
	}
	first := make([]byte, bs)
	if err := s.disk.Read(s.sb.LogStart+pos, first); err != kbase.EOK {
		return Record{}, 0, err
	}
	le := binary.LittleEndian
	if le.Uint32(first[0:]) != Magic {
		return Record{}, 0, kbase.EUCLEAN
	}
	pathLen := int(le.Uint32(first[16:]))
	path2Len := int(le.Uint32(first[20:]))
	dataLen := int(le.Uint32(first[32:]))
	total := recordHeader + pathLen + path2Len + dataLen
	if total < recordHeader || uint64(total) > s.sb.LogLen*uint64(bs) {
		return Record{}, 0, kbase.EUCLEAN
	}
	nBlocks := uint64((total + bs - 1) / bs)
	if pos+nBlocks > s.sb.LogLen {
		return Record{}, 0, kbase.EUCLEAN
	}
	full := make([]byte, nBlocks*uint64(bs))
	copy(full, first)
	for i := uint64(1); i < nBlocks; i++ {
		if err := s.disk.Read(s.sb.LogStart+pos+i, full[i*uint64(bs):(i+1)*uint64(bs)]); err != kbase.EOK {
			return Record{}, 0, err
		}
	}
	rec, _, err := decodeRecord(full[:total])
	if err != kbase.EOK {
		return Record{}, 0, err
	}
	return rec, nBlocks, kbase.EOK
}

// checkpoint persists the full state and resets the log. Safe
// ordering: the new checkpoint is durable before any log reuse.
func (s *store) checkpoint(st *fstate) kbase.Errno {
	newGen := s.ckptGen + 1
	img, err := s.checkpointImage(st, newGen, s.seq-1)
	if err != kbase.EOK {
		return err
	}
	start := s.sb.CkptAStart
	if newGen%2 == 0 {
		start = s.sb.CkptBStart
	}
	if err := s.writeCheckpoint(start, img); err != kbase.EOK {
		return err
	}
	if err := s.disk.Flush(); err != kbase.EOK {
		return err
	}
	s.ckptGen = newGen
	s.ckptSeq = s.seq - 1
	s.logPos = 0
	return kbase.EOK
}

// commit appends with checkpoint-on-full retry.
func (s *store) commit(st *fstate, r *Record) kbase.Errno {
	err := s.append(r)
	if err == kbase.ENOSPC {
		if cerr := s.checkpoint(st); cerr != kbase.EOK {
			return cerr
		}
		err = s.append(r)
	}
	return err
}

// sync makes everything logged so far durable.
func (s *store) sync() kbase.Errno {
	return s.disk.Flush()
}
