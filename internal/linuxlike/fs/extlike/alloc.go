package extlike

import (
	"encoding/binary"
	"math/bits"

	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
)

// Bitmap allocation. Both the block and inode bitmaps use the same
// journaled scan-and-set machinery. All bitmap mutations happen under
// a journal handle so that crash recovery keeps allocator state
// consistent with the structures referencing it.
//
// Allocation is first-fit: the lowest clear bit. Each bitmap keeps a
// lowest-free hint, as ext2 keeps a goal per group, so a scan starts
// where the last one ended rather than at bit 0, and reads the bitmap
// 64 bits at a time.

// bitmap is one allocation bitmap of a mounted volume: nBlocks device
// blocks from start, of which the first limit bits are valid.
type bitmap struct {
	start, nBlocks, limit uint64
	// hint is guarded by allocMu. Every bit below it is set: an
	// allocation raises it past the bit it takes, a free lowers it to
	// the bit it clears. Only the allocator changes a mounted volume's
	// bitmaps, and a buffer-cache restart keeps every bitmap buffer
	// whose image differs from the device's (it is journal-held), so
	// the hint outlives both.
	hint uint64
}

// bitWord returns the 64 bitmap bits at byte i of a bitmap block: bit
// k of the word is bit k%8 of byte i+k/8. Bytes past the block's end
// read as set, so a block whose size is a multiple of 4 but not of 8
// ends in a half word whose upper bits are never free.
func bitWord(blk []byte, i int) uint64 {
	if i+8 <= len(blk) {
		return binary.LittleEndian.Uint64(blk[i:])
	}
	w := ^uint64(0)
	for j := len(blk) - 1; j >= i; j-- {
		w = w<<8 | uint64(blk[j])
	}
	return w
}

// firstClear returns the lowest clear bit of bm in [from, to) with the
// buffer of the block holding it, which the caller releases, or a nil
// buffer when every bit in the range is set.
func (inst *fsInstance) firstClear(task *kbase.Task, bm *bitmap, from, to uint64) (uint64, *bufcache.BufferHead, kbase.Errno) {
	bitsPerBlock := uint64(inst.geo.SB.BlockSize) * 8
	for from < to {
		b := from / bitsPerBlock
		bh, err := inst.cache.BreadCtx(task, bm.start+b)
		if err != kbase.EOK {
			return 0, nil, err
		}
		base := b * bitsPerBlock
		for bit := from - base; bit < bitsPerBlock && base+bit < to; bit = bit&^63 + 64 {
			if free := ^bitWord(bh.Data, int(bit/64*8)) >> (bit % 64); free != 0 {
				idx := base + bit + uint64(bits.TrailingZeros64(free))
				if idx >= to {
					break
				}
				return idx, bh, kbase.EOK
			}
		}
		_ = bh.Put() // brelse-style release; over-release is already oopsed
		from = base + bitsPerBlock
	}
	return 0, nil, kbase.EOK
}

// bitmapAlloc finds the lowest clear bit of bm, sets it under handle h
// and returns its index. The scan starts at the hint and wraps to bit 0
// before it reports ENOSPC. allocMu serializes the scan-and-set against
// concurrent allocators.
func (inst *fsInstance) bitmapAlloc(task *kbase.Task, h *journal.Handle, bm *bitmap) (uint64, kbase.Errno) {
	inst.allocMu.Lock(task)
	defer inst.allocMu.Unlock(task)
	idx, bh, err := inst.firstClear(task, bm, bm.hint, bm.limit)
	if err == kbase.EOK && bh == nil {
		idx, bh, err = inst.firstClear(task, bm, 0, bm.hint)
	}
	if err != kbase.EOK {
		return 0, err
	}
	if bh == nil {
		return 0, kbase.ENOSPC
	}
	defer bh.Put()
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		return 0, err
	}
	bitsPerBlock := uint64(inst.geo.SB.BlockSize) * 8
	bh.Data[idx%bitsPerBlock/8] |= 1 << (idx % 8)
	bm.hint = idx + 1
	if err := h.DirtyMetadata(bh.Meta()); err != kbase.EOK {
		return 0, err
	}
	return idx, kbase.EOK
}

// bitmapFree clears bit idx of bm under handle h and lowers the hint
// to it. Double-free of a bit is a corruption oops, as ext4 would
// report via ext4_error.
func (inst *fsInstance) bitmapFree(task *kbase.Task, h *journal.Handle, bm *bitmap, idx uint64) kbase.Errno {
	inst.allocMu.Lock(task)
	defer inst.allocMu.Unlock(task)
	bs := inst.cache.Device().BlockSize()
	bitsPerBlock := uint64(bs) * 8
	bh, err := inst.cache.BreadCtx(task, bm.start+idx/bitsPerBlock)
	if err != kbase.EOK {
		return err
	}
	defer bh.Put()
	byteIdx := (idx % bitsPerBlock) / 8
	bit := byte(1 << (idx % 8))
	if bh.Data[byteIdx]&bit == 0 {
		kbase.Oops(kbase.OopsDoubleFree, "extlike", "bitmap double free of bit %d", idx)
		return kbase.EUCLEAN
	}
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		return err
	}
	bh.Data[byteIdx] &^= bit
	bm.hint = min(bm.hint, idx)
	return h.DirtyMetadata(bh.Meta())
}

// allocBlock allocates one data block and returns its device block
// number. The block contents are not initialized.
func (inst *fsInstance) allocBlock(task *kbase.Task, h *journal.Handle) (uint64, kbase.Errno) {
	idx, err := inst.bitmapAlloc(task, h, &inst.blockBM)
	if err != kbase.EOK {
		return 0, err
	}
	return idx, kbase.EOK
}

// freeBlock releases one data block. Freeing a metadata-area block is
// a corruption oops.
func (inst *fsInstance) freeBlock(task *kbase.Task, h *journal.Handle, block uint64) kbase.Errno {
	if block < inst.geo.SB.DataStart {
		kbase.Oops(kbase.OopsCorruption, "extlike", "freeing metadata block %d", block)
		return kbase.EUCLEAN
	}
	return inst.bitmapFree(task, h, &inst.blockBM, block)
}

// allocIno allocates an inode number (1-based).
func (inst *fsInstance) allocIno(task *kbase.Task, h *journal.Handle) (uint64, kbase.Errno) {
	idx, err := inst.bitmapAlloc(task, h, &inst.inodeBM)
	if err != kbase.EOK {
		return 0, err
	}
	return idx + 1, kbase.EOK
}

// freeIno releases an inode number.
func (inst *fsInstance) freeIno(task *kbase.Task, h *journal.Handle, ino uint64) kbase.Errno {
	if ino == 0 || ino > uint64(inst.geo.SB.InodeCount) {
		return kbase.EINVAL
	}
	return inst.bitmapFree(task, h, &inst.inodeBM, ino-1)
}

// countFreeBits counts the clear bits of bm. Caller holds allocMu.
func (inst *fsInstance) countFreeBits(bm *bitmap) (uint64, kbase.Errno) {
	bitsPerBlock := uint64(inst.geo.SB.BlockSize) * 8
	var free uint64
	for b := uint64(0); b < bm.nBlocks; b++ {
		bh, err := inst.cache.Bread(bm.start + b)
		if err != kbase.EOK {
			return 0, err
		}
		base := b * bitsPerBlock
		for bit := uint64(0); bit < bitsPerBlock && base+bit < bm.limit; bit += 64 {
			w := ^bitWord(bh.Data, int(bit/8))
			if n := bm.limit - (base + bit); n < 64 {
				w &= 1<<n - 1
			}
			free += uint64(bits.OnesCount64(w))
		}
		_ = bh.Put() // brelse-style release; over-release is already oopsed
	}
	return free, kbase.EOK
}
