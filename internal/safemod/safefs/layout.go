// Package safefs is the end state of the paper's roadmap applied to
// one module: a file system that is modular (drops into the same VFS
// behind vfs.FileSystemType), type safe (no untyped handoffs — every
// boundary is a concrete struct or generic), ownership safe (file
// contents live in ownership cells; a write reads the caller's bytes
// once, into the log image, and the file's cell is updated from that
// logged copy, so the log and the live state cannot diverge), and
// functionally specified (the package ships its own abstract model —
// a map from path strings to content bytes, §4.4's example — plus the
// abstraction function and crash spec, checked by
// internal/safety/spec).
//
// The on-disk design makes crash consistency structural rather than
// incidental: safefs is a redo-logging FS. Every operation appends
// one checksummed record to an on-disk log and the in-memory state is
// exactly the replay of that log on top of the last checkpoint, so
// after any crash the FS recovers to a prefix of committed operations
// — never a torn state. (Contrast extlike's data=writeback mode,
// whose metadata outlives its data; the experiments measure exactly
// this difference.)
//
// Layout:
//
//	block 0:              superblock
//	checkpoint region A \ full-state snapshots, alternating,
//	checkpoint region B /  each with generation + checksum
//	log region:           sequential records, one or more blocks each
package safefs

import (
	"encoding/binary"
	"hash/crc32"

	"safelinux/internal/linuxlike/kbase"
)

// On-disk constants.
const (
	Magic   = 0x53464653 // "SFFS"
	Version = 1
)

// superblock is block 0.
type superblock struct {
	Magic      uint32
	Version    uint32
	Blocks     uint64
	BlockSize  uint32
	CkptAStart uint64
	CkptLen    uint64 // each region's length
	CkptBStart uint64
	LogStart   uint64
	LogLen     uint64
}

func (sb *superblock) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sb.Magic)
	le.PutUint32(buf[4:], sb.Version)
	le.PutUint64(buf[8:], sb.Blocks)
	le.PutUint32(buf[16:], sb.BlockSize)
	le.PutUint64(buf[24:], sb.CkptAStart)
	le.PutUint64(buf[32:], sb.CkptLen)
	le.PutUint64(buf[40:], sb.CkptBStart)
	le.PutUint64(buf[48:], sb.LogStart)
	le.PutUint64(buf[56:], sb.LogLen)
}

func (sb *superblock) decode(buf []byte) kbase.Errno {
	le := binary.LittleEndian
	sb.Magic = le.Uint32(buf[0:])
	sb.Version = le.Uint32(buf[4:])
	if sb.Magic != Magic || sb.Version != Version {
		return kbase.EUCLEAN
	}
	sb.Blocks = le.Uint64(buf[8:])
	sb.BlockSize = le.Uint32(buf[16:])
	sb.CkptAStart = le.Uint64(buf[24:])
	sb.CkptLen = le.Uint64(buf[32:])
	sb.CkptBStart = le.Uint64(buf[40:])
	sb.LogStart = le.Uint64(buf[48:])
	sb.LogLen = le.Uint64(buf[56:])
	return kbase.EOK
}

// computeLayout splits a device: 1 superblock, two equal checkpoint
// regions (30% of the device together), the rest log.
func computeLayout(blocks uint64, blockSize int) (superblock, bool) {
	if blocks < 16 || blockSize < 64 {
		return superblock{}, false
	}
	ckptLen := blocks * 15 / 100
	if ckptLen < 2 {
		ckptLen = 2
	}
	sb := superblock{
		Magic: Magic, Version: Version,
		Blocks: blocks, BlockSize: uint32(blockSize),
	}
	sb.CkptAStart = 1
	sb.CkptLen = ckptLen
	sb.CkptBStart = sb.CkptAStart + ckptLen
	sb.LogStart = sb.CkptBStart + ckptLen
	if sb.LogStart+4 > blocks {
		return superblock{}, false
	}
	sb.LogLen = blocks - sb.LogStart
	return sb, true
}

// OpKind is a logged operation type.
type OpKind uint8

// Logged operation kinds.
const (
	OpCreate OpKind = iota + 1
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpWrite
	OpTruncate
)

// Record is one logged operation. Exactly one of the optional fields
// is meaningful per kind; the struct is small enough that a union
// encoding would only obscure it.
type Record struct {
	Seq  uint64
	Kind OpKind
	Path string
	// Rename target.
	Path2 string
	// Write payload and offset; Truncate size in Off.
	Off  int64
	Data []byte
}

// recordHeader: magic(4) seq(8) kind(1) pad(3) pathLen(4) path2Len(4)
// off(8) dataLen(4) crc(4) = 40 bytes.
const recordHeader = 40

// encodedLen returns the byte length of the serialized record.
func (r *Record) encodedLen() int {
	return recordHeader + len(r.Path) + len(r.Path2) + len(r.Data)
}

// encodeInto serializes the record with its checksum at the front of
// dst, which must hold at least encodedLen bytes, and zeroes the rest
// of dst, so a reused image carries no bytes of an earlier record.
// The payload is read from r.Data exactly once, here.
func (r *Record) encodeInto(dst []byte) {
	n := r.encodedLen()
	le := binary.LittleEndian
	le.PutUint32(dst[0:], Magic)
	le.PutUint64(dst[4:], r.Seq)
	dst[12] = byte(r.Kind)
	clear(dst[13:16])
	le.PutUint32(dst[16:], uint32(len(r.Path)))
	le.PutUint32(dst[20:], uint32(len(r.Path2)))
	le.PutUint64(dst[24:], uint64(r.Off))
	le.PutUint32(dst[32:], uint32(len(r.Data)))
	off := recordHeader
	off += copy(dst[off:], r.Path)
	off += copy(dst[off:], r.Path2)
	copy(dst[off:], r.Data)
	clear(dst[n:])
	// Checksum over everything except the crc field itself.
	crc := crc32.Update(0, crc32.IEEETable, dst[:36])
	crc = crc32.Update(crc, crc32.IEEETable, dst[recordHeader:n])
	le.PutUint32(dst[36:], crc)
}

// decodeRecord parses one record from buf. It returns the record and
// the total bytes consumed, or an error for malformed/corrupt input.
func decodeRecord(buf []byte) (Record, int, kbase.Errno) {
	if len(buf) < recordHeader {
		return Record{}, 0, kbase.EUCLEAN
	}
	le := binary.LittleEndian
	if le.Uint32(buf[0:]) != Magic {
		return Record{}, 0, kbase.EUCLEAN
	}
	r := Record{
		Seq:  le.Uint64(buf[4:]),
		Kind: OpKind(buf[12]),
	}
	pathLen := int(le.Uint32(buf[16:]))
	path2Len := int(le.Uint32(buf[20:]))
	r.Off = int64(le.Uint64(buf[24:]))
	dataLen := int(le.Uint32(buf[32:]))
	total := recordHeader + pathLen + path2Len + dataLen
	if total > len(buf) {
		return Record{}, 0, kbase.EUCLEAN
	}
	crc := crc32.NewIEEE()
	crc.Write(buf[:36])
	crc.Write(buf[recordHeader:total])
	if crc.Sum32() != le.Uint32(buf[36:]) {
		return Record{}, 0, kbase.EUCLEAN
	}
	off := recordHeader
	r.Path = string(buf[off : off+pathLen])
	off += pathLen
	r.Path2 = string(buf[off : off+path2Len])
	off += path2Len
	if dataLen > 0 {
		r.Data = make([]byte, dataLen)
		copy(r.Data, buf[off:off+dataLen])
	}
	return r, total, kbase.EOK
}
