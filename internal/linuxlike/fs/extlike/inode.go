package extlike

import (
	"slices"

	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// einode is the in-memory inode private state: a cached copy of the
// on-disk inode. It hangs off the vfs inode's private slot, as
// i_private does, reached only through the typed accessors.
type einode struct {
	ino uint64
	// lock is the per-inode mutex (i_rwsem's stand-in). It guards di
	// and the inode's directory/file content. Class is dir_inode or
	// file_inode by mode; child directories lock with subclass 1.
	lock *kbase.KMutex
	di   diskInode
	// orphan marks an inode whose last link was dropped while
	// descriptors still referenced it: blocks and the ino number stay
	// allocated until the last close runs Release. Guarded by lock.
	// On crash the storage leaks, as in ext without orphan-list
	// recovery.
	orphan bool
	// dirents caches a directory's decoded entries once dirCached is
	// set (an empty directory caches a nil slice). Guarded by lock;
	// readDir fills it, writeDir replaces it, and the slice is never
	// modified in place. dirCached sits beside orphan so the two bools
	// share one word.
	dirCached bool
	dirents   []dirent
	// dirtyData lists, once each, the data blocks of a regular file
	// dirtied since its last fsync: the set Fsync writes and drains.
	// Guarded by lock. Freeing a block drops it, so a block reused by
	// another file is never written on that file's behalf. A block a
	// checkpoint cleaned may stay listed until the next fsync, which
	// skips it; the list never outgrows the file's block map.
	dirtyData []uint64
}

// noteDirtyData adds block, a data block of ei just dirtied, to the
// fsync set. Directory blocks are journaled metadata and stay out.
// Caller holds ei.lock.
func (ei *einode) noteDirtyData(block uint64) {
	if ei.di.Mode == modeRegDisk && !slices.Contains(ei.dirtyData, block) {
		ei.dirtyData = append(ei.dirtyData, block)
	}
}

// einodeOf downcasts Inode.Private through the vfs accessor, so the
// untyped boundary is crossed only in the package that declares it.
func einodeOf(ino *vfs.Inode) (*einode, kbase.Errno) {
	ei, ok := vfs.PrivateAs[*einode](ino)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike",
			"inode %d private is not *einode", ino.Ino)
		return nil, kbase.EUCLEAN
	}
	return ei, kbase.EOK
}

// itabLocate returns the inode-table device block and byte offset of
// ino.
func (inst *fsInstance) itabLocate(ino uint64) (uint64, int) {
	perBlock := uint64(inst.geo.SB.BlockSize) / DiskInodeSize
	idx := ino - 1
	return inst.geo.SB.ITabStart + idx/perBlock, int(idx % perBlock * DiskInodeSize)
}

// readDiskInode loads the on-disk inode.
func (inst *fsInstance) readDiskInode(ino uint64) (diskInode, kbase.Errno) {
	block, off := inst.itabLocate(ino)
	bh, err := inst.cache.Bread(block)
	if err != kbase.EOK {
		return diskInode{}, err
	}
	defer bh.Put()
	var di diskInode
	di.decode(bh.Data[off : off+DiskInodeSize])
	return di, kbase.EOK
}

// writeDiskInode stores the inode under a journal handle.
func (inst *fsInstance) writeDiskInode(task *kbase.Task, h *journal.Handle, ino uint64, di *diskInode) kbase.Errno {
	block, off := inst.itabLocate(ino)
	bh, err := inst.cache.Bread(block)
	if err != kbase.EOK {
		return err
	}
	defer bh.Put()
	if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
		return err
	}
	di.encode(bh.Data[off : off+DiskInodeSize])
	return h.DirtyMetadata(bh.Meta())
}

// iget returns the in-memory vfs.Inode for ino, loading it from disk
// on first use. It takes the itable lock itself; callers may hold any
// inode locks (imu nests inside them and is never held across a
// kbase lock acquisition).
func (inst *fsInstance) iget(task *kbase.Task, ino uint64) (*vfs.Inode, kbase.Errno) {
	inst.imu.Lock()
	defer inst.imu.Unlock()
	if vi, ok := inst.inodes[ino]; ok {
		return vi, kbase.EOK
	}
	di, err := inst.readDiskInode(ino)
	if err != kbase.EOK {
		return nil, err
	}
	if di.Nlink == 0 && ino != RootIno {
		return nil, kbase.ESTALE
	}
	var mode vfs.FileMode
	lockClass := fileClass
	switch di.Mode {
	case modeDirDisk:
		mode = vfs.ModeDir
		lockClass = dirClass
	default:
		mode = vfs.ModeRegular
	}
	ei := &einode{ino: ino, lock: kbase.NewKMutex(lockClass), di: di}
	vi := &vfs.Inode{
		Ino:     ino,
		Mode:    mode,
		Nlink:   uint32(di.Nlink),
		ILock:   kbase.NewSpinLock(vfs.ILockClass),
		ISize:   int64(di.Size),
		Sb:      inst.vsb,
		Ops:     &inodeOps{inst: inst},
		FileOps: &fileOps{inst: inst},
	}
	vfs.SetPrivate(vi, ei)
	inst.inodes[ino] = vi
	return vi, kbase.EOK
}

// blockFor maps fileBlock of ei to a device block. With alloc, holes
// are filled by allocating data blocks (and the indirect block when
// needed) under h. A zero return with EOK means "hole" (only when
// !alloc).
func (inst *fsInstance) blockFor(task *kbase.Task, h *journal.Handle, ei *einode, fileBlock uint64, alloc bool) (uint64, kbase.Errno) {
	bs := uint64(inst.geo.SB.BlockSize)
	ptrsPerBlock := bs / 8
	if fileBlock < NumDirect {
		blk := ei.di.Direct[fileBlock]
		if blk == 0 && alloc {
			nb, err := inst.allocBlock(task, h)
			if err != kbase.EOK {
				return 0, err
			}
			if err := inst.zeroBlock(nb); err != kbase.EOK {
				return 0, err
			}
			ei.di.Direct[fileBlock] = nb
			blk = nb
		}
		return blk, kbase.EOK
	}
	idx := fileBlock - NumDirect
	if idx >= ptrsPerBlock {
		return 0, kbase.EFBIG
	}
	if ei.di.Indirect == 0 {
		if !alloc {
			return 0, kbase.EOK
		}
		nb, err := inst.allocBlock(task, h)
		if err != kbase.EOK {
			return 0, err
		}
		if err := inst.zeroBlock(nb); err != kbase.EOK {
			return 0, err
		}
		ei.di.Indirect = nb
	}
	ibh, err := inst.cache.BreadCtx(task, ei.di.Indirect)
	if err != kbase.EOK {
		return 0, err
	}
	defer ibh.Put()
	blk := leU64(ibh.Data[idx*8:])
	if blk == 0 && alloc {
		nb, err := inst.allocBlock(task, h)
		if err != kbase.EOK {
			return 0, err
		}
		if err := inst.zeroBlock(nb); err != kbase.EOK {
			return 0, err
		}
		if err := h.GetWriteAccess(ibh.Meta()); err != kbase.EOK {
			return 0, err
		}
		putU64(ibh.Data[idx*8:], nb)
		if err := h.DirtyMetadata(ibh.Meta()); err != kbase.EOK {
			return 0, err
		}
		blk = nb
	}
	return blk, kbase.EOK
}

// zeroBlock initializes a freshly allocated block in the cache
// (marked new+uptodate, written back as data).
func (inst *fsInstance) zeroBlock(block uint64) kbase.Errno {
	bh, err := inst.cache.GetBlk(block)
	if err != kbase.EOK {
		return err
	}
	defer bh.Put()
	for i := range bh.Data {
		bh.Data[i] = 0
	}
	bh.SetFlag(bufcache.BHNew | bufcache.BHUptodate | bufcache.BHMapped)
	bh.MarkDirty()
	return kbase.EOK
}

// readFileRange copies file bytes [off, off+len(buf)) of ei into buf,
// bounded by size. Returns bytes copied.
func (inst *fsInstance) readFileRange(task *kbase.Task, ei *einode, buf []byte, off int64) (int, kbase.Errno) {
	size := int64(ei.di.Size)
	if off >= size {
		return 0, kbase.EOK
	}
	if max := size - off; int64(len(buf)) > max {
		buf = buf[:max]
	}
	bs := int64(inst.geo.SB.BlockSize)
	n := 0
	for n < len(buf) {
		fb := uint64((off + int64(n)) / bs)
		inBlock := (off + int64(n)) % bs
		want := len(buf) - n
		if rem := int(bs - inBlock); want > rem {
			want = rem
		}
		blk, err := inst.blockFor(task, nil, ei, fb, false)
		if err != kbase.EOK {
			return n, err
		}
		if blk == 0 { // hole
			for i := 0; i < want; i++ {
				buf[n+i] = 0
			}
		} else {
			bh, err := inst.cache.BreadCtx(task, blk)
			if err != kbase.EOK {
				return n, err
			}
			copy(buf[n:n+want], bh.Data[inBlock:])
			_ = bh.Put() // brelse-style release; over-release is already oopsed
		}
		n += want
	}
	return n, kbase.EOK
}

// writeFileRange writes data at off into ei under h, allocating
// blocks as needed. Data blocks are dirtied in the cache (writeback)
// and join ei's fsync set; only allocation metadata is journaled. Size
// is NOT updated here.
func (inst *fsInstance) writeFileRange(task *kbase.Task, h *journal.Handle, ei *einode, data []byte, off int64) (int, kbase.Errno) {
	if uint64(off)+uint64(len(data)) > inst.geo.MaxFileSize() {
		return 0, kbase.EFBIG
	}
	bs := int64(inst.geo.SB.BlockSize)
	n := 0
	for n < len(data) {
		fb := uint64((off + int64(n)) / bs)
		inBlock := (off + int64(n)) % bs
		want := len(data) - n
		if rem := int(bs - inBlock); want > rem {
			want = rem
		}
		blk, err := inst.blockFor(task, h, ei, fb, true)
		if err != kbase.EOK {
			return n, err
		}
		var bh *bufcache.BufferHead
		if inBlock == 0 && want == int(bs) {
			// Full-block overwrite: no read needed.
			bh, err = inst.cache.GetBlk(blk)
			if err == kbase.EOK {
				bh.SetFlag(bufcache.BHMapped | bufcache.BHUptodate)
			}
		} else {
			bh, err = inst.cache.BreadCtx(task, blk)
		}
		if err != kbase.EOK {
			return n, err
		}
		copy(bh.Data[inBlock:], data[n:n+want])
		bh.MarkDirty()
		ei.noteDirtyData(blk)
		_ = bh.Put() // brelse-style release; over-release is already oopsed
		n += want
	}
	return n, kbase.EOK
}

// truncateBlocks frees all blocks of ei beyond newSize and shrinks
// the mapping. Growing is handled by hole semantics.
func (inst *fsInstance) truncateBlocks(task *kbase.Task, h *journal.Handle, ei *einode, newSize int64) kbase.Errno {
	bs := uint64(inst.geo.SB.BlockSize)
	keep := (uint64(newSize) + bs - 1) / bs // file blocks to keep
	ptrsPerBlock := bs / 8

	// Zero the tail of the last kept block past the new EOF. Without
	// this, extending the file again exposes the stale bytes as data
	// (fuzzer-found: pwrite/truncate/pwrite diverged from safefs);
	// ext4 does the same partial-block zeroing on shrink.
	if tail := uint64(newSize) % bs; tail != 0 {
		blk, err := inst.blockFor(task, h, ei, keep-1, false)
		if err != kbase.EOK {
			return err
		}
		if blk != 0 {
			bh, err := inst.cache.BreadCtx(task, blk)
			if err != kbase.EOK {
				return err
			}
			for i := tail; i < bs; i++ {
				bh.Data[i] = 0
			}
			bh.MarkDirty()
			ei.noteDirtyData(blk)
			_ = bh.Put() // brelse-style release; over-release is already oopsed
		}
	}

	// freeData releases one data block of ei. A file's block leaves the
	// fsync set. A directory's block was logged as metadata, so it is
	// revoked: its next owner's fsync writes the home location without
	// a checkpoint, and replaying an older copy would overwrite that.
	freeData := func(blk uint64) kbase.Errno {
		if err := inst.freeBlock(task, h, blk); err != kbase.EOK {
			return err
		}
		if ei.di.Mode == modeDirDisk {
			return h.Revoke(blk)
		}
		ei.dirtyData = slices.DeleteFunc(ei.dirtyData, func(b uint64) bool { return b == blk })
		return kbase.EOK
	}

	for fb := keep; fb < NumDirect; fb++ {
		if ei.di.Direct[fb] != 0 {
			if err := freeData(ei.di.Direct[fb]); err != kbase.EOK {
				return err
			}
			ei.di.Direct[fb] = 0
		}
	}
	if ei.di.Indirect != 0 {
		ibh, err := inst.cache.BreadCtx(task, ei.di.Indirect)
		if err != kbase.EOK {
			return err
		}
		dirtied := false
		for idx := uint64(0); idx < ptrsPerBlock; idx++ {
			fb := NumDirect + idx
			if fb < keep {
				continue
			}
			blk := leU64(ibh.Data[idx*8:])
			if blk == 0 {
				continue
			}
			if err := freeData(blk); err != kbase.EOK {
				_ = ibh.Put() // brelse-style release; over-release is already oopsed
				return err
			}
			if !dirtied {
				if err := h.GetWriteAccess(ibh.Meta()); err != kbase.EOK {
					_ = ibh.Put() // brelse-style release; over-release is already oopsed
					return err
				}
				dirtied = true
			}
			putU64(ibh.Data[idx*8:], 0)
		}
		if dirtied {
			if err := h.DirtyMetadata(ibh.Meta()); err != kbase.EOK {
				_ = ibh.Put() // brelse-style release; over-release is already oopsed
				return err
			}
		}
		if keep <= NumDirect {
			// Whole indirect tree gone.
			if err := inst.freeBlock(task, h, ei.di.Indirect); err != kbase.EOK {
				_ = ibh.Put() // brelse-style release; over-release is already oopsed
				return err
			}
			// The indirect block may be reused as data; revoke it.
			if err := h.Revoke(ei.di.Indirect); err != kbase.EOK {
				_ = ibh.Put() // brelse-style release; over-release is already oopsed
				return err
			}
			inst.cache.Forget(ibh)
			ei.di.Indirect = 0
		}
		_ = ibh.Put() // brelse-style release; over-release is already oopsed
	}
	return kbase.EOK
}

// freeAllBlocks releases every block of ei (unlink with nlink 0).
func (inst *fsInstance) freeAllBlocks(task *kbase.Task, h *journal.Handle, ei *einode) kbase.Errno {
	return inst.truncateBlocks(task, h, ei, 0)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
