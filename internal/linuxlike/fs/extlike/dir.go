package extlike

import (
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// Directory contents are stored as serialized dirent records in the
// directory inode's data blocks, read and rewritten wholesale. Real
// ext4 uses hashed trees; linear rewrite keeps the on-disk format
// simple while exercising the same journaling paths.

// readDir loads and decodes all entries of directory ei.
func (inst *fsInstance) readDir(task *kbase.Task, ei *einode) ([]dirent, kbase.Errno) {
	size := int(ei.di.Size)
	buf := make([]byte, size)
	n, err := inst.readFileRange(task, ei, buf, 0)
	if err != kbase.EOK {
		return nil, err
	}
	if n != size {
		return nil, kbase.EUCLEAN
	}
	return decodeDirents(buf)
}

// writeDir serializes entries into directory ei under h and updates
// its size (journaled).
func (inst *fsInstance) writeDir(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, ents []dirent) kbase.Errno {
	buf := encodeDirents(ents)
	if len(buf) > 0 {
		if _, err := inst.writeFileRange(task, h, ei, buf, 0); err != kbase.EOK {
			return err
		}
	}
	oldSize := int64(ei.di.Size)
	newSize := int64(len(buf))
	if newSize < oldSize {
		if err := inst.truncateBlocks(task, h, ei, newSize); err != kbase.EOK {
			return err
		}
	}
	ei.di.Size = uint64(newSize)
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		return err
	}
	dirVi.SizeWrite(task, newSize)
	// Directory data must be durable with the metadata that references
	// it; journal the data blocks too (directories are metadata).
	return inst.journalDirData(task, h, ei, newSize)
}

// journalDirData adds the directory's data blocks to the transaction
// so replay reconstructs directory contents.
func (inst *fsInstance) journalDirData(task *kbase.Task, h *journal.Handle, ei *einode, size int64) kbase.Errno {
	bs := int64(inst.geo.SB.BlockSize)
	for off := int64(0); off < size; off += bs {
		blk, err := inst.blockFor(task, nil, ei, uint64(off/bs), false)
		if err != kbase.EOK {
			return err
		}
		if blk == 0 {
			continue
		}
		bh, err := inst.cache.BreadCtx(task, blk)
		if err != kbase.EOK {
			return err
		}
		if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			return err
		}
		if err := h.DirtyMetadata(bh.Meta()); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			return err
		}
		_ = bh.Put() // brelse-style release; over-release is already oopsed
	}
	return kbase.EOK
}

// txSlack bounds the buffers a namespace operation joins to its
// journal transaction besides directory data: inode-table blocks, the
// inode and block bitmaps, and an indirect block.
const txSlack = 8

// dirsFit returns ENOSPC when rewriting directories of the given
// encoded sizes would join more buffers to one transaction than the
// journal can log. Callers check before opening the journal handle, so
// a refused operation has modified nothing.
func (inst *fsInstance) dirsFit(sizes ...int) kbase.Errno {
	bs := int(inst.geo.SB.BlockSize)
	need := txSlack
	for _, n := range sizes {
		need += (n + bs - 1) / bs
	}
	if need > inst.jnl.TxCapacity() {
		return kbase.ENOSPC
	}
	return kbase.EOK
}

// dirFind returns the index of name in ents, or -1.
func dirFind(ents []dirent, name string) int {
	for i, e := range ents {
		if e.Name == name {
			return i
		}
	}
	return -1
}
