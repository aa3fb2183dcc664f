package extlike

import (
	"slices"
	"sync"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/typedapi"
)

// FS is the extlike file system type.
type FS struct{}

// Name implements vfs.FileSystemType.
func (f *FS) Name() string { return "extlike" }

// MountData is what the mount data envelope must contain.
type MountData struct {
	Dev *blockdev.Device
	// CacheSize bounds the buffer cache (0 = unbounded).
	CacheSize int
}

// Lock classes for the fine-grained locking scheme. The big fs lock
// is gone; the hierarchy is
//
//	rename > dir_inode > dir_inode#1 > file_inode > alloc
//
// with the journal handle opened only after every inode lock is held
// (handle holders must never block on an inode lock, or they would
// deadlock against the journal's commit gate). The alloc lock is a
// leaf taken around bitmap scans while a handle is open.
var (
	renameClass = kbase.NewLockClass("extlike.rename")
	dirClass    = kbase.NewLockClass("extlike.dir_inode")
	fileClass   = kbase.NewLockClass("extlike.file_inode")
	allocClass  = kbase.NewLockClass("extlike.alloc")
)

// fsInstance is one mounted extlike file system.
type fsInstance struct {
	cache *bufcache.Cache
	jnl   *journal.Journal
	geo   Geometry
	vsb   *vfs.SuperBlock

	// renameMu serializes every operation that must hold more than
	// one directory-inode lock (rename, rmdir). With at most one
	// dir lock per task outside renameMu, no cycle can form at the
	// dir level — the same job s_vfs_rename_mutex does in Linux.
	renameMu *kbase.KMutex
	// allocMu guards both allocation bitmaps (scan-and-set and
	// free-bit counting) and their hints.
	allocMu          *kbase.KMutex
	blockBM, inodeBM bitmap

	// opsFit records, once at mount, whether one transaction can log
	// a namespace operation's footprint (Geometry.opFootprint); a
	// volume whose journal cannot refuses them all with ENOSPC.
	opsFit bool

	imu    sync.Mutex // guards inodes (the icache table) only
	inodes map[uint64]*vfs.Inode

	// tokens recycles writeTokens, each with its journal handle, so a
	// write allocates none: jbd2 takes its handles from a slab.
	tokens sync.Pool
}

// Mount implements vfs.FileSystemType. data must wrap a *MountData —
// checked with the legacy any-downcast, oopsing on confusion.
func (f *FS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	md, ok := vfs.MountDataAs[*MountData](data)
	if !ok || md.Dev == nil {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike", "mount data is not *extlike.MountData")
		return nil, kbase.EINVAL
	}
	geo, err := readGeometry(md.Dev)
	if err != kbase.EOK {
		return nil, err
	}
	cache := bufcache.NewCache(md.Dev, md.CacheSize)
	inst := &fsInstance{
		cache:    cache,
		geo:      geo,
		renameMu: kbase.NewKMutex(renameClass),
		allocMu:  kbase.NewKMutex(allocClass),
		blockBM:  bitmap{start: geo.SB.BBMStart, nBlocks: geo.SB.BBMBlocks, limit: geo.SB.TotalBlocks},
		inodeBM:  bitmap{start: geo.SB.IBMStart, nBlocks: geo.SB.IBMBlocks, limit: uint64(geo.SB.InodeCount)},
		inodes:   make(map[uint64]*vfs.Inode),
	}
	inst.tokens.New = func() any { return new(writeToken) }
	inst.jnl = journal.New(cache, geo.SB.JournalStart, geo.SB.JournalLen)
	inst.opsFit = geo.opFootprint() <= inst.jnl.TxCapacity()
	// Crash recovery on every mount; clean mounts replay nothing.
	if _, err := inst.jnl.Recover(); err != kbase.EOK {
		return nil, err
	}
	vsb := &vfs.SuperBlock{FSType: f.Name(), Ops: inst}
	vfs.SetSBPrivate(vsb, inst)
	inst.vsb = vsb
	root, err := inst.iget(task, geo.SB.RootIno)
	if err != kbase.EOK {
		return nil, err
	}
	vsb.Root = root
	return vsb, kbase.EOK
}

// Journal returns the instance journal (for tests and tooling).
func (inst *fsInstance) Journal() *journal.Journal { return inst.jnl }

// Cache returns the buffer cache (for tests and tooling).
func (inst *fsInstance) Cache() *bufcache.Cache { return inst.cache }

// InstanceOf extracts the fsInstance from a mounted superblock; it is
// exported for white-box tests and the fault injector.
func InstanceOf(sb *vfs.SuperBlock) (interface {
	Journal() *journal.Journal
	Cache() *bufcache.Cache
}, bool) {
	inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
	return inst, ok
}

// begin opens a journal handle on the running transaction.
func (inst *fsInstance) begin() *journal.Handle {
	return inst.jnl.Begin()
}

// commit force-commits the running transaction, checkpointing and
// retrying once if the journal is full. The task carries the caller's
// trace into the journal's latency plane.
func (inst *fsInstance) commit(task *kbase.Task) kbase.Errno {
	err := inst.jnl.CommitCtx(task)
	if err == kbase.ENOSPC {
		if err := inst.jnl.CheckpointCtx(task); err != kbase.EOK {
			return err
		}
		err = inst.jnl.CommitCtx(task)
	}
	return err
}

// inodeOps implements vfs.TypedInodeOps: extlike is a converted file
// system, so Lookup/Create/Mkdir return typedapi.Result and no errno
// ever travels inside an inode pointer.
type inodeOps struct {
	inst *fsInstance
}

func (o *inodeOps) LookupTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	i := dirFind(ents, name)
	if i < 0 {
		return typedapi.Err[*vfs.Inode](kbase.ENOENT)
	}
	child, err := inst.iget(task, ents[i].Ino)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	return typedapi.Ok(child)
}

func (o *inodeOps) CreateTyped(task *kbase.Task, dir *vfs.Inode, name string, mode vfs.FileMode) typedapi.Result[*vfs.Inode] {
	if len(name) == 0 || len(name) > vfs.MaxNameLen {
		return typedapi.Err[*vfs.Inode](kbase.EINVAL)
	}
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	if dirFind(ents, name) >= 0 {
		return typedapi.Err[*vfs.Inode](kbase.EEXIST)
	}
	slot, err := inst.dirSlot(ei, ents, name)
	if err == kbase.EOK {
		err = inst.opsRoom()
	}
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	h := inst.begin()
	defer h.Stop()
	ino, err := inst.allocIno(task, h)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	diskMode, nlink := modeRegDisk, uint16(1)
	if mode.IsDir() {
		diskMode, nlink = modeDirDisk, 2
	}
	di := diskInode{Mode: diskMode, Nlink: nlink}
	if err := inst.writeDiskInode(task, h, ino, &di); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	if err := inst.dirInsert(task, h, dir, ei, slot, ino, diskMode, name); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	h.Stop()
	if err := inst.commit(task); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	child, err := inst.iget(task, ino)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	return typedapi.Ok(child)
}

func (o *inodeOps) MkdirTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	return o.CreateTyped(task, dir, name, vfs.ModeDir)
}

func (o *inodeOps) Unlink(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	return o.inst.removeEntry(task, dir, name, false)
}

func (o *inodeOps) Rmdir(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	// Rmdir locks two directory inodes (parent then child), so it
	// must serialize against other multi-dir lockers.
	inst := o.inst
	inst.renameMu.Lock(task)
	defer inst.renameMu.Unlock(task)
	return inst.removeEntry(task, dir, name, true)
}

// removeEntry implements unlink and rmdir. For wantDir the caller
// holds renameMu (two dir locks are about to be taken).
func (inst *fsInstance) removeEntry(task *kbase.Task, dir *vfs.Inode, name string, wantDir bool) kbase.Errno {
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return err
	}
	i := dirFind(ents, name)
	if i < 0 {
		return kbase.ENOENT
	}
	target := ents[i]
	isDir := target.Mode == modeDirDisk
	if wantDir && !isDir {
		return kbase.ENOTDIR
	}
	if !wantDir && isDir {
		return kbase.EISDIR
	}
	childVi, err := inst.iget(task, target.Ino)
	if err != kbase.EOK {
		return err
	}
	cei, err := einodeOf(childVi)
	if err != kbase.EOK {
		return err
	}
	if isDir {
		// Child directory nests under the parent's class.
		cei.lock.LockNested(task, 1)
	} else {
		cei.lock.Lock(task)
	}
	defer cei.lock.Unlock(task)
	if wantDir {
		if err := inst.checkEmptyDir(task, childVi, cei); err != kbase.EOK {
			return err
		}
	}
	if err := inst.opsRoom(); err != kbase.EOK {
		return err
	}

	h := inst.begin()
	defer h.Stop()
	if err := inst.dirRemove(task, h, dir, ei, i); err != kbase.EOK {
		return err
	}
	if isDir {
		cei.di.Nlink = 0
	} else {
		cei.di.Nlink--
	}
	childVi.ILock.Lock(task)
	childVi.Nlink = uint32(cei.di.Nlink)
	childVi.ILock.Unlock(task)
	if cei.di.Nlink == 0 {
		// POSIX orphan file: live descriptors must keep reading and
		// writing until the last close, so storage reclaim is deferred
		// to Release. The dirent is gone either way.
		cei.orphan = childVi.OpenCount() > 0
		if !cei.orphan {
			if err := inst.freeAllBlocks(task, h, cei); err != kbase.EOK {
				return err
			}
		}
	}
	if err := inst.releaseInode(task, h, target.Ino, cei); err != kbase.EOK {
		return err
	}
	h.Stop()
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	// The removal has committed: empty blocks a failed trim leaves
	// are the next trim's, and rmdir trims before it frees.
	_ = inst.dirTrim(task, dir, ei)
	return kbase.EOK
}

// releaseInode writes ei's disk inode and, once its last link is gone,
// uncaches it and — unless it is an orphan still open — returns its
// number to the bitmap. The number is freed last: a concurrent create
// in another directory may take it the moment freeIno returns, and
// must then find neither this inode's nlink=0 write landing on its
// fresh disk inode nor the dead vfs.Inode in the cache.
func (inst *fsInstance) releaseInode(task *kbase.Task, h *journal.Handle, ino uint64, ei *einode) kbase.Errno {
	if err := inst.writeDiskInode(task, h, ino, &ei.di); err != kbase.EOK {
		return err
	}
	if ei.di.Nlink != 0 {
		return kbase.EOK
	}
	inst.imu.Lock()
	delete(inst.inodes, ino)
	inst.imu.Unlock()
	if ei.orphan {
		return kbase.EOK
	}
	return inst.freeIno(task, h, ino)
}

func (o *inodeOps) Rename(task *kbase.Task, oldDir *vfs.Inode, oldName string, newDir *vfs.Inode, newName string) kbase.Errno {
	if len(newName) == 0 || len(newName) > vfs.MaxNameLen {
		return kbase.EINVAL
	}
	inst := o.inst
	// All renames serialize on renameMu: they may hold two dir
	// locks at once, and no topological order between arbitrary
	// directories exists without it.
	inst.renameMu.Lock(task)
	defer inst.renameMu.Unlock(task)
	oei, err := einodeOf(oldDir)
	if err != kbase.EOK {
		return err
	}
	nei, err := einodeOf(newDir)
	if err != kbase.EOK {
		return err
	}
	sameDir := oei == nei
	oei.lock.Lock(task)
	defer oei.lock.Unlock(task)
	if !sameDir {
		nei.lock.LockNested(task, 1)
		defer nei.lock.Unlock(task)
	}
	oldEnts, err := inst.readDir(task, oei)
	if err != kbase.EOK {
		return err
	}
	oi := dirFind(oldEnts, oldName)
	if oi < 0 {
		return kbase.ENOENT
	}
	moving := oldEnts[oi]

	newEnts := oldEnts
	if !sameDir {
		newEnts, err = inst.readDir(task, nei)
		if err != kbase.EOK {
			return err
		}
	}
	ni := dirFind(newEnts, newName)
	// Without a target the new name needs a record: the moving one,
	// when the name fits its rec_len, or a slot in the new directory.
	inPlace := sameDir && recSize(len(newName)) <= int(moving.recLen)
	slot := 0
	if ni < 0 && !inPlace {
		if slot, err = inst.dirSlot(nei, newEnts, newName); err != kbase.EOK {
			return err
		}
	}
	if err := inst.opsRoom(); err != kbase.EOK {
		return err
	}

	// Resolve and lock a replaced target BEFORE opening the journal
	// handle: handle holders must never block on an inode lock.
	var xei *einode
	var exVi *vfs.Inode
	if ni >= 0 {
		existing := newEnts[ni]
		if existing.Ino == moving.Ino {
			// POSIX: oldpath and newpath name the same file (self-
			// rename or two links to one inode) — rename does nothing
			// and reports success. Without this the replace path below
			// would free the very inode being moved.
			return kbase.EOK
		}
		// POSIX rename(2) kind rules: a directory may not replace a
		// non-directory (ENOTDIR), a non-directory may not replace a
		// directory (EISDIR), and a directory target must be empty
		// (ENOTEMPTY below). The old code fell through to the file
		// replace path and silently clobbered a file with a
		// directory — fuzzer-found.
		movingDir := moving.Mode == modeDirDisk
		existingDir := existing.Mode == modeDirDisk
		if movingDir && !existingDir {
			return kbase.ENOTDIR
		}
		if !movingDir && existingDir {
			return kbase.EISDIR
		}
		if exVi, err = inst.iget(task, existing.Ino); err != kbase.EOK {
			return err
		}
		if xei, err = einodeOf(exVi); err != kbase.EOK {
			return err
		}
		if existingDir {
			// Up to two dir locks are already held; renameMu makes
			// the extra subclass safe.
			xei.lock.LockNested(task, 2)
		} else {
			xei.lock.Lock(task)
		}
		defer xei.lock.Unlock(task)
		if existingDir {
			if err := inst.checkEmptyDir(task, exVi, xei); err != kbase.EOK {
				return err
			}
		}
	}

	h := inst.begin()
	defer h.Stop()

	if ni >= 0 {
		// Replace: drop the target like unlink (or rmdir, for an
		// empty directory target) does.
		existing := newEnts[ni]
		if existing.Mode == modeDirDisk {
			xei.di.Nlink = 0
		} else {
			xei.di.Nlink--
		}
		if xei.di.Nlink == 0 {
			// Replaced-while-open target: orphan it like unlink does;
			// Release reclaims at the last close.
			xei.orphan = exVi.OpenCount() > 0
			if !xei.orphan {
				if err := inst.freeAllBlocks(task, h, xei); err != kbase.EOK {
					return err
				}
			}
		}
		if err := inst.releaseInode(task, h, existing.Ino, xei); err != kbase.EOK {
			return err
		}
	}

	// Each edit changes one block of one directory and keeps that
	// directory's cached records in step.
	switch {
	case ni >= 0:
		// Onto an existing name: its record now names the moving inode.
		if err := inst.dirSet(task, h, nei, ni, newName, moving.Ino, moving.Mode); err != kbase.EOK {
			return err
		}
		if err := inst.dirRemove(task, h, oldDir, oei, oi); err != kbase.EOK {
			return err
		}
	case inPlace:
		if err := inst.dirSet(task, h, oei, oi, newName, moving.Ino, moving.Mode); err != kbase.EOK {
			return err
		}
	default:
		if err := inst.dirInsert(task, h, newDir, nei, slot, moving.Ino, moving.Mode, newName); err != kbase.EOK {
			return err
		}
		// An insert into the same directory may shift the source.
		if err := inst.dirRemove(task, h, oldDir, oei, dirFind(oei.dirents, oldName)); err != kbase.EOK {
			return err
		}
	}
	h.Stop()
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	_ = inst.dirTrim(task, oldDir, oei) // as in removeEntry
	return kbase.EOK
}

// checkEmptyDir returns ENOTEMPTY unless directory ei holds no live
// entry, and then frees any blocks it still holds, in transactions of
// their own (dirTrim), so that removing it revokes none. The caller
// holds ei.lock and no handle.
func (inst *fsInstance) checkEmptyDir(task *kbase.Task, vi *vfs.Inode, ei *einode) kbase.Errno {
	sub, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return err
	}
	if slices.ContainsFunc(sub, live) {
		return kbase.ENOTEMPTY
	}
	return inst.dirTrim(task, vi, ei)
}

func (o *inodeOps) ReadDir(task *kbase.Task, dir *vfs.Inode) ([]vfs.DirEntry, kbase.Errno) {
	inst := o.inst
	ei, err := einodeOf(dir)
	if err != kbase.EOK {
		return nil, err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	ents, err := inst.readDir(task, ei)
	if err != kbase.EOK {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for _, e := range ents {
		if e.Ino == 0 {
			continue
		}
		mode := vfs.ModeRegular
		if e.Mode == modeDirDisk {
			mode = vfs.ModeDir
		}
		out = append(out, vfs.DirEntry{Name: e.Name, Ino: e.Ino, Mode: mode})
	}
	return out, kbase.EOK
}

// writeToken carries state from WriteBegin to WriteEnd through the
// VFS's WriteState ferry. di is the on-disk inode as WriteBegin found
// it: WriteEnd journals the inode only when the write changed it.
// Tokens come from the instance's pool and go back when the write ends.
type writeToken struct {
	ei *einode
	h  journal.Handle
	di diskInode
}

// endWrite unlocks the written inode and returns tok to the pool.
func (inst *fsInstance) endWrite(task *kbase.Task, tok *writeToken) {
	ei := tok.ei
	ei.wtok = nil
	ei.writing.Store(nil)
	*tok = writeToken{}
	inst.tokens.Put(tok)
	ei.lock.Unlock(task)
}

// fileOps implements vfs.FileOps.
type fileOps struct {
	inst *fsInstance
}

func (fo *fileOps) Read(task *kbase.Task, ino *vfs.Inode, buf []byte, off int64) (int, kbase.Errno) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return 0, err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	return inst.readFileRange(task, ei, buf, off)
}

func (fo *fileOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	ei.lock.Lock(task) // released in WriteEnd — the legacy protocol spans calls
	tok := inst.tokens.Get().(*writeToken)
	tok.ei, tok.di = ei, ei.di
	inst.jnl.Start(&tok.h)
	ei.wtok = tok
	ei.writing.Store(task)
	return vfs.NewWriteState(tok), kbase.EOK
}

func (fo *fileOps) WriteCopy(task *kbase.Task, ino *vfs.Inode, off int64, data []byte, private vfs.WriteState) (int, kbase.Errno) {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike",
			"write_copy private is not *writeToken")
		fo.abortWrite(task, ino)
		return 0, kbase.EUCLEAN
	}
	n, err := fo.inst.writeFileRange(task, &tok.h, tok.ei, data, off)
	if err != kbase.EOK && n == 0 {
		// Nothing was written, so the write ends here; a short write
		// ends in WriteEnd.
		fo.inst.abandonWrite(task, tok)
	}
	return n, err
}

// abandonWrite ends tok's write without a commit. The copy may have
// mapped new blocks before it stopped: their pointers join the
// transaction that holds their allocation, or the next commit leaks
// them on disk. The handle stops, so that transaction can commit.
func (inst *fsInstance) abandonWrite(task *kbase.Task, tok *writeToken) {
	if tok.ei.di != tok.di {
		_ = inst.writeDiskInode(task, &tok.h, tok.ei.ino, &tok.ei.di)
	}
	tok.h.Stop()
	inst.endWrite(task, tok)
}

func (fo *fileOps) WriteEnd(task *kbase.Task, ino *vfs.Inode, off int64, n int, private vfs.WriteState) kbase.Errno {
	tok, ok := vfs.WriteStateAs[*writeToken](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "extlike",
			"write_end private is not *writeToken")
		fo.abortWrite(task, ino)
		return kbase.EUCLEAN
	}
	inst := fo.inst
	end := off + int64(n)
	if end > int64(tok.ei.di.Size) {
		tok.ei.di.Size = uint64(end)
		ino.SizeWrite(task, end)
	}
	// Journal the inode only when its bytes changed: a larger size or a
	// new block pointer. Commit only when the handle journaled something,
	// as jbd2's journal_stop does not commit: an in-place overwrite
	// leaves the running transaction as it found it, and the next handle
	// joins that one.
	var err kbase.Errno = kbase.EOK
	if tok.ei.di != tok.di {
		err = inst.writeDiskInode(task, &tok.h, tok.ei.ino, &tok.ei.di)
	}
	tok.h.Stop()
	if tok.h.Used() {
		if cerr := inst.commit(task); err == kbase.EOK {
			err = cerr
		}
	}
	if err == kbase.EOK && inst.cache.DirtyPressure() {
		// Writeback under memory pressure: file data stays dirty until
		// its fsync or a checkpoint, and dirty buffers cannot be evicted,
		// so a bounded cache half full of them writes everything back.
		// Best effort, as balance_dirty_pages: the write has already
		// taken effect, so a writeback error is not its error.
		_ = inst.SyncFS(task)
	}
	inst.endWrite(task, tok)
	return err
}

// abortWrite cleans up when the token was type-confused. The foreign
// value carries nothing of ours, so the inode says what is open: a
// write this task began there is abandoned, handle and lock included.
// A write another task holds, or none at all (a layer above skipped
// WriteBegin), is left alone.
func (fo *fileOps) abortWrite(task *kbase.Task, ino *vfs.Inode) {
	ei, err := einodeOf(ino)
	if err != kbase.EOK || task == nil || ei.writing.Load() != task {
		return
	}
	fo.inst.abandonWrite(task, ei.wtok)
}

func (fo *fileOps) Truncate(task *kbase.Task, ino *vfs.Inode, size int64) kbase.Errno {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	h := inst.begin()
	defer h.Stop()
	if size < int64(ei.di.Size) {
		if err := inst.truncateBlocks(task, h, ei, size); err != kbase.EOK {
			return err
		}
	}
	ei.di.Size = uint64(size)
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		return err
	}
	ino.SizeWrite(task, size)
	h.Stop()
	return inst.commit(task)
}

func (fo *fileOps) Fsync(task *kbase.Task, ino *vfs.Inode) kbase.Errno {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return err
	}
	// Hold the inode lock so an in-flight write to this file has
	// fully landed before we commit and write back; it also keeps every
	// other writer off this file's data blocks while they are copied out.
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	// jbd2-style: commit the running transaction, which holds this
	// file's metadata and any revoke of a block it now owns (group
	// commit), then write the file's own dirty data and flush. The
	// journal is checkpointed only when it fills, on SyncFS or unmount.
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	if err := inst.cache.SyncBlocksCtx(task, ei.dirtyData); err != kbase.EOK {
		return err
	}
	ei.dirtyData = ei.dirtyData[:0]
	return kbase.EOK
}

// Release implements vfs.ReleaseOps: the last descriptor on the
// inode closed. If unlink (or a replacing rename) orphaned it, the
// deferred reclaim runs now — blocks and the ino number go back to
// the bitmaps under a journal handle, exactly the free path unlink
// would have taken.
func (fo *fileOps) Release(task *kbase.Task, ino *vfs.Inode) {
	inst := fo.inst
	ei, err := einodeOf(ino)
	if err != kbase.EOK {
		return
	}
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	if !ei.orphan {
		return
	}
	ei.orphan = false
	h := inst.begin()
	defer h.Stop()
	if err := inst.freeAllBlocks(task, h, ei); err != kbase.EOK {
		return
	}
	// The inode left the cache at unlink; write it before the number
	// goes back to the bitmap (see releaseInode).
	if err := inst.writeDiskInode(task, h, ei.ino, &ei.di); err != kbase.EOK {
		return
	}
	if err := inst.freeIno(task, h, ei.ino); err != kbase.EOK {
		return
	}
	h.Stop()
	_ = inst.commit(task)
}

// SuperBlockOps.

func (inst *fsInstance) Statfs(task *kbase.Task) (vfs.StatFS, kbase.Errno) {
	inst.allocMu.Lock(task)
	defer inst.allocMu.Unlock(task)
	freeB, err := inst.countFreeBits(&inst.blockBM)
	if err != kbase.EOK {
		return vfs.StatFS{}, err
	}
	freeI, err := inst.countFreeBits(&inst.inodeBM)
	if err != kbase.EOK {
		return vfs.StatFS{}, err
	}
	return vfs.StatFS{
		TotalBlocks: inst.geo.SB.TotalBlocks,
		FreeBlocks:  freeB,
		TotalInodes: uint64(inst.geo.SB.InodeCount),
		FreeInodes:  freeI,
		FSName:      "extlike",
	}, kbase.EOK
}

func (inst *fsInstance) SyncFS(task *kbase.Task) kbase.Errno {
	// No instance-wide lock: the journal's commit gate quiesces
	// metadata, and SyncDirtyCtx snapshots the dirty set on its own.
	if err := inst.commit(task); err != kbase.EOK {
		return err
	}
	return inst.jnl.CheckpointCtx(task)
}

func (inst *fsInstance) Unmount(task *kbase.Task) kbase.Errno {
	return inst.SyncFS(task)
}
