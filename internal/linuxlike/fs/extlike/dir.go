package extlike

import (
	"encoding/binary"
	"fmt"
	"slices"

	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// Directory contents are ext2-style records (see layout.go) in the
// directory inode's data blocks. The decoded records stay cached on the
// einode (the dentry/page-cache role), each with its byte offset, so a
// namespace operation edits, journals and writes back only the block
// holding the record it changes, as ext2 over jbd2 does: an unlink
// merges its record into the predecessor, a create splits the first
// record with room for it. The directory inode is journaled only when
// its size or block map changes. Real ext4 adds hashed trees on top;
// here a lookup stays a linear scan of the cached records, each of
// which carries a hash of its name, so the scan compares one word per
// record and a name only where the hashes match.
//
// Every helper below edits the block before the cache, and only once
// the block has joined the transaction, so a refused edit leaves both
// as they were. A failure after that drops the cache, and the next
// readDir decodes whatever the buffers hold.

// dirShrinkMax bounds how many empty trailing blocks one operation
// frees from a directory, and so the revoke records it adds.
const dirShrinkMax = 8

// opFootprint bounds the buffers one namespace operation joins to its
// transaction: rename's two directory blocks; the inode-table blocks of
// both directories and of a created or replaced inode; the inode
// bitmap; every block-bitmap block (freeing a replaced file may touch
// them all); and two indirect blocks (a directory that grows or shrinks,
// and a replaced file). It also bounds the revoke records of a
// directory shrink: dirShrinkMax blocks and an indirect one. Mount
// checks it against the journal's TxCapacity once.
func (g *Geometry) opFootprint() int {
	return max(2+3+1+int(g.SB.BBMBlocks)+2, dirShrinkMax+1)
}

// opsRoom returns ENOSPC when the journal cannot log one namespace
// operation (a volume too small for its footprint).
func (inst *fsInstance) opsRoom() kbase.Errno {
	if inst.opsFit {
		return kbase.EOK
	}
	return kbase.ENOSPC
}

// readDir returns the records of directory ei, unused ones included,
// decoding its blocks on first use. The caller holds ei.lock. The
// returned slice is the cache itself: only the dir* helpers below
// change it.
func (inst *fsInstance) readDir(task *kbase.Task, ei *einode) ([]dirent, kbase.Errno) {
	if ei.dirCached {
		return ei.dirents, kbase.EOK
	}
	ents, _, err := inst.decodeDir(task, ei)
	if err != kbase.EOK {
		return nil, err
	}
	ei.dirents, ei.dirCached = ents, true
	return ents, kbase.EOK
}

// dropDir forgets ei's cached records after a failed edit.
func dropDir(ei *einode) { ei.dirents, ei.dirCached = nil, false }

// decodeDir loads and decodes every record of directory ei from its
// blocks, bypassing the cache (fsck uses it as an independent check).
// A broken record chain, a partial block or a hole is EUCLEAN, with a
// description of the fault.
func (inst *fsInstance) decodeDir(task *kbase.Task, ei *einode) ([]dirent, string, kbase.Errno) {
	bs := uint64(inst.geo.SB.BlockSize)
	if ei.di.Size%bs != 0 {
		return nil, fmt.Sprintf("size %d is not a whole number of blocks", ei.di.Size), kbase.EUCLEAN
	}
	var ents []dirent
	var blk [1]uint64
	for fb := uint64(0); fb < ei.di.Size/bs; fb++ {
		if _, err := inst.mapRange(task, nil, ei, fb, blk[:], false); err != kbase.EOK {
			return nil, "", err
		}
		if blk[0] == 0 {
			return nil, fmt.Sprintf("block %d is a hole", fb), kbase.EUCLEAN
		}
		bh, err := inst.cache.BreadCtx(task, blk[0])
		if err != kbase.EOK {
			return nil, "", err
		}
		var problem string
		ents, problem = decodeDirBlock(bh.Data, uint32(fb*bs), ents)
		_ = bh.Put() // brelse-style release; over-release is already oopsed
		if problem != "" {
			return nil, problem, kbase.EUCLEAN
		}
	}
	return ents, "", kbase.EOK
}

// dirFind returns the index of the live record named name, or -1.
func dirFind(ents []dirent, name string) int {
	hash := nameHash(name)
	for i := range ents {
		if ents[i].hash == hash && ents[i].Ino != 0 && ents[i].Name == name {
			return i
		}
	}
	return -1
}

func live(e dirent) bool { return e.Ino != 0 }

// dirSlot returns the index of the first record of ei with slack for
// an entry named name, or -1 when the directory must grow a block.
// A name no block can hold is ENAMETOOLONG, and a directory at the
// largest file size with no slack is ENOSPC. Callers check before
// opening the journal handle, so a refused operation has modified
// nothing.
func (inst *fsInstance) dirSlot(ei *einode, ents []dirent, name string) (int, kbase.Errno) {
	need := recSize(len(name))
	bs := inst.geo.SB.BlockSize
	if need > int(bs) {
		return 0, kbase.ENAMETOOLONG
	}
	for i := range ents {
		if int(ents[i].recLen)-ents[i].used() >= need {
			return i, kbase.EOK
		}
	}
	if ei.di.Size+uint64(bs) > inst.geo.MaxFileSize() {
		return 0, kbase.ENOSPC
	}
	return -1, kbase.EOK
}

// dirBlock returns the buffer of the block holding directory byte off,
// joined to h for an edit. The caller edits it, then calls dirDirty.
func (inst *fsInstance) dirBlock(task *kbase.Task, h *journal.Handle, ei *einode, off uint32) (*bufcache.BufferHead, kbase.Errno) {
	var blk [1]uint64
	if _, err := inst.mapRange(task, nil, ei, uint64(off/inst.geo.SB.BlockSize), blk[:], false); err != kbase.EOK {
		return nil, err
	}
	if blk[0] == 0 {
		return nil, kbase.EUCLEAN
	}
	bh, err := inst.cache.BreadCtx(task, blk[0])
	if err != kbase.EOK {
		return nil, err
	}
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		_ = bh.Put() // brelse-style release; over-release is already oopsed
		return nil, err
	}
	return bh, kbase.EOK
}

// dirDirty marks an edited directory block as journaled metadata, so
// directory data is durable with the inode that references it, and
// releases it. A failure drops ei's cache.
func dirDirty(h *journal.Handle, ei *einode, bh *bufcache.BufferHead) kbase.Errno {
	err := h.DirtyMetadata(bh.Meta())
	_ = bh.Put() // brelse-style release; over-release is already oopsed
	if err != kbase.EOK {
		dropDir(ei)
	}
	return err
}

// dirInsert adds an entry for (ino, mode, name) to directory ei under
// h, at the slot dirSlot chose: an unused record is taken whole, a
// live one is split after its entry. Either edits one block. Slot -1
// appends a block holding the one record.
func (inst *fsInstance) dirInsert(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, slot int, ino uint64, mode uint16, name string) kbase.Errno {
	e := dirent{Name: name, Ino: ino, Mode: mode, hash: nameHash(name)}
	if slot < 0 {
		return inst.dirAppend(task, h, dirVi, ei, e)
	}
	bs := inst.geo.SB.BlockSize
	r := &ei.dirents[slot]
	bh, err := inst.dirBlock(task, h, ei, r.off)
	if err != kbase.EOK {
		return err
	}
	e.off, e.recLen = r.off, r.recLen
	if u := r.used(); u > 0 {
		e.off += uint32(u)
		e.recLen -= uint16(u)
		r.recLen = uint16(u)
		binary.LittleEndian.PutUint16(bh.Data[r.off%bs+8:], r.recLen)
		ei.dirents = slices.Insert(ei.dirents, slot+1, e)
	} else {
		*r = e
	}
	putDirent(bh.Data[e.off%bs:], &e)
	return dirDirty(h, ei, bh)
}

// dirAppend adds a block holding the one record e to the end of
// directory ei and journals the inode, whose size and block map grow.
func (inst *fsInstance) dirAppend(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, e dirent) kbase.Errno {
	bs := inst.geo.SB.BlockSize
	before := ei.di
	var blk [1]uint64
	if _, err := inst.mapRange(task, h, ei, ei.di.Size/uint64(bs), blk[:], true); err != kbase.EOK {
		// A refused allocation may still have mapped an indirect block:
		// its pointer joins the transaction that holds its allocation.
		if ei.di != before {
			_ = inst.writeDiskInode(task, h, ei.ino, &ei.di)
		}
		return err
	}
	bh, err := inst.cache.BreadCtx(task, blk[0])
	if err == kbase.EOK {
		if err = h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
			_ = bh.Put() // brelse-style release; over-release is already oopsed
		}
	}
	if err != kbase.EOK {
		_ = inst.writeDiskInode(task, h, ei.ino, &ei.di)
		return err
	}
	e.off, e.recLen = uint32(ei.di.Size), uint16(bs)
	putDirent(bh.Data, &e)
	ei.dirents = append(ei.dirents, e)
	if err := dirDirty(h, ei, bh); err != kbase.EOK {
		return err
	}
	return inst.setDirSize(task, h, dirVi, ei, ei.di.Size+uint64(bs))
}

// setDirSize records a new size of directory ei and journals its inode.
func (inst *fsInstance) setDirSize(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, size uint64) kbase.Errno {
	ei.di.Size = size
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		dropDir(ei)
		return err
	}
	dirVi.SizeWrite(task, int64(size))
	return kbase.EOK
}

// dirSet rewrites live record i of directory ei under h to name ino
// and mode as name, in place: a rename whose new name fits the record's
// rec_len, or a rename onto an existing name. It edits one block.
func (inst *fsInstance) dirSet(task *kbase.Task, h *journal.Handle, ei *einode, i int, name string, ino uint64, mode uint16) kbase.Errno {
	r := &ei.dirents[i]
	bh, err := inst.dirBlock(task, h, ei, r.off)
	if err != kbase.EOK {
		return err
	}
	r.Name, r.hash, r.Ino, r.Mode = name, nameHash(name), ino, mode
	putDirent(bh.Data[r.off%inst.geo.SB.BlockSize:], r)
	return dirDirty(h, ei, bh)
}

// dirRemove deletes live record i of directory ei under h. The first
// record of a block becomes unused (ino 0); any other merges into its
// predecessor's rec_len. Either edits one block. When the record is the
// last live one of the directory's last block, the block is freed
// instead (see dirShrink); the caller trims what that leaves once it
// has committed (see dirTrim).
func (inst *fsInstance) dirRemove(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, i int) kbase.Errno {
	ents := ei.dirents
	bs := inst.geo.SB.BlockSize
	r := ents[i]
	start := r.off - r.off%bs
	first, end := i, i+1
	for first > 0 && ents[first-1].off >= start {
		first--
	}
	for end < len(ents) && ents[end].off < start+bs {
		end++
	}
	if uint64(start+bs) == ei.di.Size &&
		!slices.ContainsFunc(ents[first:i], live) && !slices.ContainsFunc(ents[i+1:end], live) {
		return inst.dirShrink(task, h, dirVi, ei, first)
	}
	bh, err := inst.dirBlock(task, h, ei, r.off)
	if err != kbase.EOK {
		return err
	}
	if r.off == start {
		binary.LittleEndian.PutUint64(bh.Data, 0)
		ents[i] = dirent{off: r.off, recLen: r.recLen}
	} else {
		p := &ents[i-1]
		p.recLen += r.recLen
		binary.LittleEndian.PutUint16(bh.Data[p.off%bs+8:], p.recLen)
		ei.dirents = slices.Delete(ents, i, i+1)
	}
	return dirDirty(h, ei, bh)
}

// dirShrink frees the last block of directory ei, whose records start
// at index cut and hold no live entry once the caller's record goes,
// together with up to dirShrinkMax-1 empty blocks before it, and
// journals the smaller size. The freed blocks are revoked: they were
// logged as metadata and may come back as file data.
func (inst *fsInstance) dirShrink(task *kbase.Task, h *journal.Handle, dirVi *vfs.Inode, ei *einode, cut int) kbase.Errno {
	ents := ei.dirents
	bs := inst.geo.SB.BlockSize
	size := ents[cut].off
	for n := 1; n < dirShrinkMax && size > 0; n++ {
		j := cut
		for j > 0 && ents[j-1].off >= size-bs {
			j--
		}
		if slices.ContainsFunc(ents[j:cut], live) {
			break
		}
		cut, size = j, size-bs
	}
	if err := inst.truncateBlocks(task, h, ei, int64(size)); err != kbase.EOK {
		dropDir(ei)
		return err
	}
	clear(ents[cut:])
	ei.dirents = ents[:cut]
	return inst.setDirSize(task, h, dirVi, ei, uint64(size))
}

// dirTrim frees the trailing blocks of directory ei that hold no live
// record, dirShrinkMax at a time, each batch in a transaction of its
// own, as ext4 restarts its handle while truncating. An operation's own
// shrink stops at dirShrinkMax blocks, and a directory emptied front to
// back has every block empty by its last unlink. Each commit leaves a
// smaller directory with the same live records, so a crash between
// them leaves a valid one, and the next trim resumes. The caller holds
// ei.lock and no handle.
func (inst *fsInstance) dirTrim(task *kbase.Task, dirVi *vfs.Inode, ei *einode) kbase.Errno {
	bs := uint64(inst.geo.SB.BlockSize)
	for ei.di.Size > 0 {
		ents, err := inst.readDir(task, ei)
		if err != kbase.EOK {
			return err
		}
		cut := len(ents)
		for cut > 0 && uint64(ents[cut-1].off) >= ei.di.Size-bs {
			cut--
		}
		if slices.ContainsFunc(ents[cut:], live) {
			return kbase.EOK
		}
		if err := inst.opsRoom(); err != kbase.EOK {
			return err
		}
		h := inst.begin()
		err = inst.dirShrink(task, h, dirVi, ei, cut)
		h.Stop()
		if err != kbase.EOK {
			return err
		}
		if err := inst.commit(task); err != kbase.EOK {
			return err
		}
	}
	return kbase.EOK
}
