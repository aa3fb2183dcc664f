package extlike

import (
	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
)

// MkfsOptions configures Mkfs.
type MkfsOptions struct {
	InodeCount uint32 // default: one inode per 4 data blocks
	JournalLen uint64 // default: max(8, 1/16 of device)
}

// Mkfs formats dev with an empty extlike file system and returns the
// geometry. The root directory is created with no entries.
func Mkfs(dev *blockdev.Device, opts MkfsOptions) (Geometry, kbase.Errno) {
	total := dev.Blocks()
	if opts.InodeCount == 0 {
		ic := total / 4
		if ic < 16 {
			ic = 16
		}
		if ic > 1<<20 {
			ic = 1 << 20
		}
		opts.InodeCount = uint32(ic)
	}
	if opts.JournalLen == 0 {
		opts.JournalLen = total / 16
		if opts.JournalLen < 8 {
			opts.JournalLen = 8
		}
	}
	geo, ok := ComputeGeometry(total, uint32(dev.BlockSize()), opts.InodeCount, opts.JournalLen)
	if !ok {
		return Geometry{}, kbase.EINVAL
	}
	sb := &geo.SB
	bs := int(sb.BlockSize)

	// Superblock.
	buf := make([]byte, bs)
	sb.encode(buf)
	if err := dev.Write(0, buf); err != kbase.EOK {
		return Geometry{}, err
	}

	// Block bitmap: everything below DataStart is in use.
	if err := writeBitmap(dev, sb.BBMStart, sb.BBMBlocks, bs, sb.DataStart); err != kbase.EOK {
		return Geometry{}, err
	}
	// Inode bitmap: root inode (bit 0) in use.
	if err := writeBitmap(dev, sb.IBMStart, sb.IBMBlocks, bs, 1); err != kbase.EOK {
		return Geometry{}, err
	}
	// Inode table: zero everything, then the root directory inode.
	zero := make([]byte, bs)
	for i := uint64(0); i < sb.ITabBlocks; i++ {
		if err := dev.Write(sb.ITabStart+i, zero); err != kbase.EOK {
			return Geometry{}, err
		}
	}
	root := diskInode{Mode: uint16(modeDirDisk), Nlink: 2, Size: 0}
	itBuf := make([]byte, bs)
	if err := dev.Read(sb.ITabStart, itBuf); err != kbase.EOK {
		return Geometry{}, err
	}
	root.encode(itBuf[0:DiskInodeSize])
	if err := dev.Write(sb.ITabStart, itBuf); err != kbase.EOK {
		return Geometry{}, err
	}
	if err := dev.Flush(); err != kbase.EOK {
		return Geometry{}, err
	}

	// Journal superblock.
	cache := bufcache.NewCache(dev, 0)
	j := journal.New(cache, sb.JournalStart, sb.JournalLen)
	if err := j.Format(); err != kbase.EOK {
		return Geometry{}, err
	}
	return geo, kbase.EOK
}

// readGeometry reads dev's superblock and checks it before anything is
// derived from it: it must describe dev, and it must be the layout
// ComputeGeometry gives its own four parameters. The layout is a pure
// function of those, so the one comparison bounds every region. A
// superblock that fails either check is EUCLEAN.
func readGeometry(dev *blockdev.Device) (Geometry, kbase.Errno) {
	buf := make([]byte, dev.BlockSize())
	if err := dev.Read(0, buf); err != kbase.EOK {
		return Geometry{}, err
	}
	var sb Superblock
	if err := sb.decode(buf); err != kbase.EOK {
		return Geometry{}, err
	}
	if sb.TotalBlocks != dev.Blocks() || sb.BlockSize != uint32(dev.BlockSize()) {
		return Geometry{}, kbase.EUCLEAN
	}
	geo, ok := ComputeGeometry(sb.TotalBlocks, sb.BlockSize, sb.InodeCount, sb.JournalLen)
	if !ok || geo.SB != sb {
		return Geometry{}, kbase.EUCLEAN
	}
	return geo, kbase.EOK
}

// writeBitmap writes a bitmap with the first usedPrefix bits set.
func writeBitmap(dev *blockdev.Device, start, blocks uint64, bs int, usedPrefix uint64) kbase.Errno {
	bitsPerBlock := uint64(bs) * 8
	for b := uint64(0); b < blocks; b++ {
		buf := make([]byte, bs)
		base := b * bitsPerBlock
		for bit := uint64(0); bit < bitsPerBlock; bit++ {
			if base+bit < usedPrefix {
				buf[bit/8] |= 1 << (bit % 8)
			}
		}
		if err := dev.Write(start+b, buf); err != kbase.EOK {
			return err
		}
	}
	return kbase.EOK
}

// Disk mode bits (distinct from vfs.FileMode to keep the on-disk
// format self-contained).
const (
	modeRegDisk uint16 = 1
	modeDirDisk uint16 = 2
)
