// Package extlike implements an ext-style journaling block file
// system for the simulated kernel: superblock, block/inode bitmaps, a
// fixed inode table, direct+single-indirect block mapping, directory
// entries stored in file data, and metadata journaling through the
// jbd2-like journal (data=writeback semantics: metadata is journaled,
// file data is written back lazily).
//
// The implementation is deliberately in the legacy style the paper
// critiques: inode private state is an untyped Inode.Private value,
// lookup returns ERR_PTR sentinels, the buffer_head flag protocol is
// manipulated by hand, and i_size is maintained by the file system on
// write paths ("maybe" under i_lock).
package extlike

import (
	"encoding/binary"
	"fmt"

	"safelinux/internal/linuxlike/kbase"
)

// On-disk constants.
const (
	Magic         = 0x4558544C // "EXTL"
	Version       = 1
	DiskInodeSize = 128
	NumDirect     = 10
	RootIno       = 1
)

// Superblock is the on-disk superblock (block 0).
type Superblock struct {
	Magic        uint32
	Version      uint32
	TotalBlocks  uint64
	BlockSize    uint32
	InodeCount   uint32
	BBMStart     uint64 // block bitmap
	BBMBlocks    uint64
	IBMStart     uint64 // inode bitmap
	IBMBlocks    uint64
	ITabStart    uint64 // inode table
	ITabBlocks   uint64
	JournalStart uint64
	JournalLen   uint64
	DataStart    uint64
	RootIno      uint64
}

func (sb *Superblock) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sb.Magic)
	le.PutUint32(buf[4:], sb.Version)
	le.PutUint64(buf[8:], sb.TotalBlocks)
	le.PutUint32(buf[16:], sb.BlockSize)
	le.PutUint32(buf[20:], sb.InodeCount)
	le.PutUint64(buf[24:], sb.BBMStart)
	le.PutUint64(buf[32:], sb.BBMBlocks)
	le.PutUint64(buf[40:], sb.IBMStart)
	le.PutUint64(buf[48:], sb.IBMBlocks)
	le.PutUint64(buf[56:], sb.ITabStart)
	le.PutUint64(buf[64:], sb.ITabBlocks)
	le.PutUint64(buf[72:], sb.JournalStart)
	le.PutUint64(buf[80:], sb.JournalLen)
	le.PutUint64(buf[88:], sb.DataStart)
	le.PutUint64(buf[96:], sb.RootIno)
}

func (sb *Superblock) decode(buf []byte) kbase.Errno {
	le := binary.LittleEndian
	sb.Magic = le.Uint32(buf[0:])
	sb.Version = le.Uint32(buf[4:])
	if sb.Magic != Magic || sb.Version != Version {
		return kbase.EUCLEAN
	}
	sb.TotalBlocks = le.Uint64(buf[8:])
	sb.BlockSize = le.Uint32(buf[16:])
	sb.InodeCount = le.Uint32(buf[20:])
	sb.BBMStart = le.Uint64(buf[24:])
	sb.BBMBlocks = le.Uint64(buf[32:])
	sb.IBMStart = le.Uint64(buf[40:])
	sb.IBMBlocks = le.Uint64(buf[48:])
	sb.ITabStart = le.Uint64(buf[56:])
	sb.ITabBlocks = le.Uint64(buf[64:])
	sb.JournalStart = le.Uint64(buf[72:])
	sb.JournalLen = le.Uint64(buf[80:])
	sb.DataStart = le.Uint64(buf[88:])
	sb.RootIno = le.Uint64(buf[96:])
	return kbase.EOK
}

// diskInode is the 128-byte on-disk inode.
type diskInode struct {
	Mode     uint16
	Nlink    uint16
	Size     uint64
	Direct   [NumDirect]uint64
	Indirect uint64
}

func (di *diskInode) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint16(buf[0:], di.Mode)
	le.PutUint16(buf[2:], di.Nlink)
	le.PutUint64(buf[8:], di.Size)
	for i := 0; i < NumDirect; i++ {
		le.PutUint64(buf[16+8*i:], di.Direct[i])
	}
	le.PutUint64(buf[16+8*NumDirect:], di.Indirect)
}

func (di *diskInode) decode(buf []byte) {
	le := binary.LittleEndian
	di.Mode = le.Uint16(buf[0:])
	di.Nlink = le.Uint16(buf[2:])
	di.Size = le.Uint64(buf[8:])
	for i := 0; i < NumDirect; i++ {
		di.Direct[i] = le.Uint64(buf[16+8*i:])
	}
	di.Indirect = le.Uint64(buf[16+8*NumDirect:])
}

// Directory records, ext2-style. A directory's data blocks hold a
// chain of records, each
//
//	ino u64, rec_len u16, name_len u8, mode u8, name bytes
//
// rec_len is a multiple of dirAlign and spans the record's entry plus
// any slack after it. Records never cross a block and the last record
// of a block runs to its end, so the rec_len chain of every block
// covers it exactly. A record with ino 0 is unused: the whole rec_len
// is slack. Only the first record of a block is ever unused, since an
// unlink merges any other record into its predecessor.
const (
	direntHeader = 12
	dirAlign     = 4
	// maxRecLen bounds a block size directory records can span: rec_len
	// is 16 bits.
	maxRecLen = 1<<16 - dirAlign
)

// dirent is one directory record as cached in memory. off is the
// record's byte offset in the directory, so an edit reaches its block
// without a scan. hash is nameHash(Name) for a live record and 0 for
// an unused one: a lookup compares it before the name.
type dirent struct {
	Name   string
	Ino    uint64 // 0: unused record
	off    uint32
	hash   uint32
	recLen uint16
	Mode   uint16
}

// nameHash is the 32-bit FNV-1a hash of a directory entry name.
func nameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// recSize returns the aligned length of a record naming nameLen bytes.
func recSize(nameLen int) int {
	return (direntHeader + nameLen + dirAlign - 1) &^ (dirAlign - 1)
}

// used returns the bytes of e's record its entry needs: none for an
// unused record. The rest of rec_len is slack.
func (e *dirent) used() int {
	if e.Ino == 0 {
		return 0
	}
	return recSize(len(e.Name))
}

// putDirent encodes e's record at the start of b.
func putDirent(b []byte, e *dirent) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], e.Ino)
	le.PutUint16(b[8:], e.recLen)
	b[10] = byte(len(e.Name))
	b[11] = byte(e.Mode)
	copy(b[direntHeader:], e.Name)
}

// decodeDirBlock appends the records of one directory block, which
// starts at byte base of the directory, to ents. A broken record chain
// returns a description of the fault instead.
func decodeDirBlock(blk []byte, base uint32, ents []dirent) ([]dirent, string) {
	le := binary.LittleEndian
	for off := 0; off < len(blk); {
		if off+direntHeader > len(blk) {
			return ents, fmt.Sprintf("record at %d crosses the block end", base+uint32(off))
		}
		rec := blk[off:]
		recLen := int(le.Uint16(rec[8:]))
		switch {
		case recLen < direntHeader || recLen%dirAlign != 0:
			return ents, fmt.Sprintf("record at %d has bad rec_len %d", base+uint32(off), recLen)
		case off+recLen > len(blk):
			return ents, fmt.Sprintf("record at %d (rec_len %d) crosses the block end", base+uint32(off), recLen)
		}
		e := dirent{Ino: le.Uint64(rec), off: base + uint32(off), recLen: uint16(recLen)}
		if e.Ino != 0 {
			nameLen, mode := int(rec[10]), uint16(rec[11])
			switch {
			case nameLen == 0 || direntHeader+nameLen > recLen:
				return ents, fmt.Sprintf("record at %d has name_len %d for rec_len %d", e.off, nameLen, recLen)
			case mode != modeRegDisk && mode != modeDirDisk:
				return ents, fmt.Sprintf("record at %d has bad mode %d", e.off, mode)
			}
			e.Name, e.Mode = string(rec[direntHeader:direntHeader+nameLen]), mode
			e.hash = nameHash(e.Name)
		}
		ents = append(ents, e)
		off += recLen
	}
	return ents, ""
}

// Geometry computes the layout for a device.
type Geometry struct {
	SB Superblock
}

// ComputeGeometry lays out a file system on a device of totalBlocks
// blocks of blockSize bytes, with inodeCount inodes and a journal of
// journalLen blocks. It returns EINVAL geometry errors via ok=false.
func ComputeGeometry(totalBlocks uint64, blockSize uint32, inodeCount uint32, journalLen uint64) (Geometry, bool) {
	if blockSize < DiskInodeSize || blockSize%dirAlign != 0 || blockSize > maxRecLen ||
		totalBlocks < 8 || inodeCount == 0 || journalLen < 4 {
		return Geometry{}, false
	}
	bitsPerBlock := uint64(blockSize) * 8
	bbmBlocks := (totalBlocks + bitsPerBlock - 1) / bitsPerBlock
	ibmBlocks := (uint64(inodeCount) + bitsPerBlock - 1) / bitsPerBlock
	inodesPerBlock := uint64(blockSize) / DiskInodeSize
	itabBlocks := (uint64(inodeCount) + inodesPerBlock - 1) / inodesPerBlock

	pos := uint64(1)
	sb := Superblock{
		Magic: Magic, Version: Version,
		TotalBlocks: totalBlocks, BlockSize: blockSize, InodeCount: inodeCount,
	}
	sb.BBMStart, sb.BBMBlocks = pos, bbmBlocks
	pos += bbmBlocks
	sb.IBMStart, sb.IBMBlocks = pos, ibmBlocks
	pos += ibmBlocks
	sb.ITabStart, sb.ITabBlocks = pos, itabBlocks
	pos += itabBlocks
	// The regions so far are bounded by the device and the 32-bit inode
	// count; only the journal's length, read from disk by a mount, can
	// wrap the sum, so one that would reach the end of the device is
	// refused before it is added.
	if pos >= totalBlocks || journalLen >= totalBlocks-pos {
		return Geometry{}, false
	}
	sb.JournalStart, sb.JournalLen = pos, journalLen
	sb.DataStart = pos + journalLen
	sb.RootIno = RootIno
	return Geometry{SB: sb}, true
}

// MaxFileSize returns the largest file the geometry supports.
func (g *Geometry) MaxFileSize() uint64 {
	ptrsPerBlock := uint64(g.SB.BlockSize) / 8
	return (NumDirect + ptrsPerBlock) * uint64(g.SB.BlockSize)
}
