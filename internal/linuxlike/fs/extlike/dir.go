package extlike

import (
	"bytes"

	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// Directory contents are stored as serialized dirent records in the
// directory inode's data blocks. The decoded entries stay cached on
// the einode (the dentry/page-cache role), and a rewrite re-encodes
// the whole entry list but dirties and journals only the blocks whose
// bytes change, as jbd2 logs only modified buffers. Real ext4 uses
// hashed trees; the linear format keeps the on-disk layout simple
// while exercising the same journaling paths.

// readDir returns the entries of directory ei, decoding its blocks on
// first use. The caller holds ei.lock and must not modify the
// returned slice: it is the cache itself.
func (inst *fsInstance) readDir(task *kbase.Task, ei *einode) ([]dirent, kbase.Errno) {
	if ei.dirCached {
		return ei.dirents, kbase.EOK
	}
	ents, err := inst.decodeDir(task, ei)
	if err != kbase.EOK {
		return nil, err
	}
	ei.dirents, ei.dirCached = ents, true
	return ents, kbase.EOK
}

// decodeDir loads and decodes all entries of directory ei from its
// blocks, bypassing the cache (fsck uses it as an independent check).
func (inst *fsInstance) decodeDir(task *kbase.Task, ei *einode) ([]dirent, kbase.Errno) {
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

// writeDir makes ents the contents of directory ei under h and
// updates its size (journaled). ents becomes the cached entry list, so
// the caller must not modify it afterwards. On any error the cache is
// dropped, and the next readDir decodes whatever the buffers hold.
func (inst *fsInstance) writeDir(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, ents []dirent) kbase.Errno {
	ei.dirents, ei.dirCached = nil, false
	buf := encodeDirents(ents)
	if err := inst.writeDirBlocks(task, h, ei, buf); err != kbase.EOK {
		return err
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
	ei.dirents, ei.dirCached = ents, true
	return kbase.EOK
}

// writeDirBlocks stores buf as the directory's block images: each
// block holds its slice of buf followed by a zero tail. A block whose
// cached buffer already holds that image is left alone; any other
// joins the transaction before it is modified, then is dirtied as
// metadata, so directory data is durable with the inode that
// references it.
func (inst *fsInstance) writeDirBlocks(task *kbase.Task, h *journal.Handle, ei *einode, buf []byte) kbase.Errno {
	bs := int(inst.geo.SB.BlockSize)
	for off := 0; off < len(buf); off += bs {
		img := buf[off:min(off+bs, len(buf))]
		blk, err := inst.blockFor(task, h, ei, uint64(off/bs), true)
		if err != kbase.EOK {
			return err
		}
		bh, err := inst.cache.BreadCtx(task, blk)
		if err != kbase.EOK {
			return err
		}
		if bytes.Equal(bh.Data[:len(img)], img) && allZero(bh.Data[len(img):]) {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			continue
		}
		if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
			return err
		}
		clear(bh.Data[copy(bh.Data, img):])
		err = h.DirtyMetadata(bh.Meta())
		_ = bh.Put() // brelse-style release; over-release is already oopsed
		if err != kbase.EOK {
			return err
		}
	}
	return kbase.EOK
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// withEntry returns a new slice of exactly len(ents)+1 entries: ents
// followed by e.
func withEntry(ents []dirent, e dirent) []dirent {
	out := make([]dirent, len(ents)+1)
	copy(out, ents)
	out[len(ents)] = e
	return out
}

// withoutEntry returns a new slice of exactly len(ents)-1 entries:
// ents without entry i.
func withoutEntry(ents []dirent, i int) []dirent {
	out := make([]dirent, len(ents)-1)
	copy(out, ents[:i])
	copy(out[i:], ents[i+1:])
	return out
}

// withName returns a copy of ents with entry i renamed to name.
func withName(ents []dirent, i int, name string) []dirent {
	out := make([]dirent, len(ents))
	copy(out, ents)
	out[i].Name = name
	return out
}

// txSlack bounds the buffers a namespace operation joins to its
// journal transaction besides directory data: inode-table blocks, the
// inode and block bitmaps, and an indirect block.
const txSlack = 8

// dirsFit returns ENOSPC when rewriting directories of the given
// encoded sizes would join more buffers to one transaction than the
// journal can log. Only changed blocks join, but an edit near the
// front of a directory shifts every later entry, so the whole
// directory is the bound. Callers check before opening the journal
// handle, so a refused operation has modified nothing.
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
