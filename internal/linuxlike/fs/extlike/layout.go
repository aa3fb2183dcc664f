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

// dirent is one serialized directory entry:
// ino u64, mode u16, nameLen u16, name bytes.
type dirent struct {
	Ino  uint64
	Mode uint16
	Name string
}

const direntHeader = 12

// direntsSize returns the encoded length of ents.
func direntsSize(ents []dirent) int {
	n := 0
	for _, e := range ents {
		n += direntHeader + len(e.Name)
	}
	return n
}

func encodeDirents(ents []dirent) []byte {
	buf := make([]byte, direntsSize(ents))
	off := 0
	le := binary.LittleEndian
	for _, e := range ents {
		le.PutUint64(buf[off:], e.Ino)
		le.PutUint16(buf[off+8:], e.Mode)
		le.PutUint16(buf[off+10:], uint16(len(e.Name)))
		copy(buf[off+direntHeader:], e.Name)
		off += direntHeader + len(e.Name)
	}
	return buf
}

func decodeDirents(buf []byte) ([]dirent, kbase.Errno) {
	le := binary.LittleEndian
	var ents []dirent
	off := 0
	for off < len(buf) {
		if off+direntHeader > len(buf) {
			return nil, kbase.EUCLEAN
		}
		ino := le.Uint64(buf[off:])
		mode := le.Uint16(buf[off+8:])
		nameLen := int(le.Uint16(buf[off+10:]))
		if off+direntHeader+nameLen > len(buf) {
			return nil, kbase.EUCLEAN
		}
		ents = append(ents, dirent{
			Ino:  ino,
			Mode: mode,
			Name: string(buf[off+direntHeader : off+direntHeader+nameLen]),
		})
		off += direntHeader + nameLen
	}
	return ents, kbase.EOK
}

// Geometry computes the layout for a device.
type Geometry struct {
	SB Superblock
}

// ComputeGeometry lays out a file system on a device of totalBlocks
// blocks of blockSize bytes, with inodeCount inodes and a journal of
// journalLen blocks. It returns EINVAL geometry errors via ok=false.
func ComputeGeometry(totalBlocks uint64, blockSize uint32, inodeCount uint32, journalLen uint64) (Geometry, bool) {
	if blockSize < DiskInodeSize || totalBlocks < 8 || inodeCount == 0 || journalLen < 4 {
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
	sb.JournalStart, sb.JournalLen = pos, journalLen
	pos += journalLen
	sb.DataStart = pos
	sb.RootIno = RootIno
	if pos >= totalBlocks {
		return Geometry{}, false
	}
	return Geometry{SB: sb}, true
}

// MaxFileSize returns the largest file the geometry supports.
func (g *Geometry) MaxFileSize() uint64 {
	ptrsPerBlock := uint64(g.SB.BlockSize) / 8
	return (NumDirect + ptrsPerBlock) * uint64(g.SB.BlockSize)
}
