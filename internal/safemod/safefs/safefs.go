package safefs

import (
	"strings"
	"sync"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
	"safelinux/internal/safety/typedapi"
)

// FS is the safefs file system type.
type FS struct {
	// SyncOnCommit makes every operation durable before it is
	// acknowledged (verified mode). Off, durability arrives at the
	// next Fsync/SyncFS — prefix consistency holds either way.
	SyncOnCommit bool
}

// Name implements vfs.FileSystemType.
func (f *FS) Name() string { return "safefs" }

// MountData carries the typed mount parameters. (The vfs boundary is
// the legacy `any` interface; this is the first thing safefs checks.)
type MountData struct {
	Disk    spec.DiskLike
	Checker *own.Checker
}

// fsLockClass is the lockdep class of the namespace rwsem.
var fsLockClass = kbase.NewLockClass("safefs.fslock")

// fsInstance is one mounted safefs.
type fsInstance struct {
	fs      *FS
	checker *own.Checker

	// nsLock guards st and store. Pure readers (Lookup, ReadDir,
	// Read, Statfs) take the read side and run in parallel; every
	// mutation and log/store operation takes the write side.
	nsLock *kbase.RWSem
	st     *fstate
	store  *store
	vsb    *vfs.SuperBlock

	imu     sync.Mutex // guards inodes and nextIno only
	inodes  map[string]*vfs.Inode
	nextIno uint64
}

// Mount implements vfs.FileSystemType. Recovery runs on every mount.
func (f *FS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	md, ok := vfs.MountDataAs[*MountData](data)
	if !ok || md.Disk == nil {
		kbase.Oops(kbase.OopsTypeConfusion, "safefs", "mount data is not *safefs.MountData")
		return nil, kbase.EINVAL
	}
	checker := md.Checker
	if checker == nil {
		checker = own.NewChecker(own.PolicyRecord)
	}
	store, st, err := openStore(md.Disk, checker, f.SyncOnCommit)
	if err != kbase.EOK {
		return nil, err
	}
	inst := &fsInstance{
		fs: f, checker: checker, st: st, store: store,
		nsLock: kbase.NewRWSem(fsLockClass),
		inodes: make(map[string]*vfs.Inode), nextIno: 2,
	}
	vsb := &vfs.SuperBlock{FSType: f.Name(), Ops: inst}
	vfs.SetSBPrivate(vsb, inst)
	inst.vsb = vsb
	vsb.Root = inst.inodeFor("", true)
	return vsb, kbase.EOK
}

// snode is safefs's per-inode state: the path, plus orphan storage
// for the POSIX unlink-while-open contract. All linked-file state
// lives in fstate, keyed by path, so inodes are cheap descriptors.
type snode struct {
	path string
	// orphan holds the file's bytes after its last link is dropped
	// while descriptors remain open: reads and writes through those
	// descriptors hit this buffer until the last close. nil while
	// linked. Guarded by the instance nsLock, like the fstate the
	// bytes came from. Deliberately outside the spec: the model
	// covers the namespace, and an orphan by definition has no name.
	orphan *orphanFile
}

// orphanFile is the storage for an open-but-unlinked file. The
// pointer wrapper keeps a zero-length orphan distinguishable from
// "not orphaned".
type orphanFile struct {
	data []byte
}

// inodeFor returns the (cached) inode for a path. It takes the inode
// table lock itself, so read-side namespace holders may call it.
func (inst *fsInstance) inodeFor(path string, isDir bool) *vfs.Inode {
	inst.imu.Lock()
	defer inst.imu.Unlock()
	if ino, ok := inst.inodes[path]; ok {
		return ino
	}
	mode := vfs.ModeRegular
	if isDir {
		mode = vfs.ModeDir
	}
	var inoNum uint64 = 1
	if path != "" {
		inoNum = inst.nextIno
		inst.nextIno++
	}
	ino := &vfs.Inode{
		Ino:     inoNum,
		Mode:    mode,
		Nlink:   1,
		ILock:   kbase.NewSpinLock(vfs.ILockClass),
		Sb:      inst.vsb,
		Ops:     &inodeOps{inst: inst},
		FileOps: &fileOps{inst: inst},
	}
	vfs.SetPrivate(ino, &snode{path: path})
	if !isDir {
		if size, err := inst.st.fileSize(path); err == kbase.EOK {
			ino.ISize = size
		}
	}
	inst.inodes[path] = ino
	return ino
}

// pathOf joins a directory inode and a child name.
func pathOf(dir *vfs.Inode, name string) (string, kbase.Errno) {
	sn, ok := vfs.PrivateAs[*snode](dir)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "safefs", "inode private is not *snode")
		return "", kbase.EUCLEAN
	}
	if name == "" || strings.Contains(name, "/") || len(name) > vfs.MaxNameLen {
		return "", kbase.EINVAL
	}
	if sn.path == "" {
		return name, kbase.EOK
	}
	return sn.path + "/" + name, kbase.EOK
}

// do checks, logs, then mutates: apply's two steps around the log
// commit, so the log holds only operations that succeed. The commit
// leaves r.Data pointing at the logged payload, so mutate applies the
// bytes the log holds. Caller holds inst.nsLock for writing.
func (inst *fsInstance) do(r Record) kbase.Errno {
	if err := canApply(inst.st, r); err != kbase.EOK {
		return err
	}
	if err := inst.store.commit(inst.st, &r); err != kbase.EOK {
		return err
	}
	if err := inst.st.mutate(r); err != kbase.EOK {
		// canApply said yes, mutate said no: the record is logged
		// but not applied, a bug in this module, not in the caller.
		kbase.BUG("safefs", "mutate failed after canApply on %v: %v", r.Kind, err)
	}
	return kbase.EOK
}

// --- InodeOps (typed) ---

// inodeOps implements vfs.TypedInodeOps: safefs is a converted file
// system, so Lookup/Create/Mkdir return typedapi.Result and no errno
// ever rides inside an inode pointer.
type inodeOps struct {
	inst *fsInstance
}

func (o *inodeOps) LookupTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	inst.nsLock.DownRead(task)
	defer inst.nsLock.UpRead(task)
	path, err := pathOf(dir, name)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	if inst.st.dirs[path] {
		return typedapi.Ok(inst.inodeFor(path, true))
	}
	if _, ok := inst.st.files[path]; ok {
		return typedapi.Ok(inst.inodeFor(path, false))
	}
	return typedapi.Err[*vfs.Inode](kbase.ENOENT)
}

func (o *inodeOps) CreateTyped(task *kbase.Task, dir *vfs.Inode, name string, mode vfs.FileMode) typedapi.Result[*vfs.Inode] {
	inst := o.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	path, err := pathOf(dir, name)
	if err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	kind := OpCreate
	if mode.IsDir() {
		kind = OpMkdir
	}
	if err := inst.do(Record{Kind: kind, Path: path}); err != kbase.EOK {
		return typedapi.Err[*vfs.Inode](err)
	}
	return typedapi.Ok(inst.inodeFor(path, mode.IsDir()))
}

func (o *inodeOps) MkdirTyped(task *kbase.Task, dir *vfs.Inode, name string) typedapi.Result[*vfs.Inode] {
	return o.CreateTyped(task, dir, name, vfs.ModeDir)
}

func (o *inodeOps) Unlink(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	inst := o.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	path, err := pathOf(dir, name)
	if err != kbase.EOK {
		return err
	}
	// Copy the bytes out before the record frees them if descriptors
	// are still open: they must keep reading and writing the file
	// until the last close (POSIX orphan contract), even though the
	// name is about to disappear.
	keep := inst.captureOrphan(path)
	if err := inst.do(Record{Kind: OpUnlink, Path: path}); err != kbase.EOK {
		return err
	}
	inst.adoptOrphan(path, keep)
	inst.imu.Lock()
	delete(inst.inodes, path)
	inst.imu.Unlock()
	return kbase.EOK
}

// captureOrphan snapshots path's content when open descriptors would
// outlive its last link. Caller holds nsLock for writing. Returns nil
// when no descriptor is open (or path is not a file).
func (inst *fsInstance) captureOrphan(path string) *orphanFile {
	inst.imu.Lock()
	ino := inst.inodes[path]
	inst.imu.Unlock()
	if ino == nil || ino.OpenCount() == 0 {
		return nil
	}
	size, err := inst.st.fileSize(path)
	if err != kbase.EOK {
		return nil
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := inst.st.readFile(path, buf, 0); err != kbase.EOK {
			return nil
		}
	}
	return &orphanFile{data: buf}
}

// adoptOrphan hangs a captured snapshot off path's inode after the
// namespace record committed. Caller holds nsLock for writing.
func (inst *fsInstance) adoptOrphan(path string, keep *orphanFile) {
	if keep == nil {
		return
	}
	inst.imu.Lock()
	ino := inst.inodes[path]
	inst.imu.Unlock()
	if ino == nil {
		return
	}
	if sn, ok := vfs.PrivateAs[*snode](ino); ok {
		sn.orphan = keep
	}
}

func (o *inodeOps) Rmdir(task *kbase.Task, dir *vfs.Inode, name string) kbase.Errno {
	inst := o.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	path, err := pathOf(dir, name)
	if err != kbase.EOK {
		return err
	}
	if err := inst.do(Record{Kind: OpRmdir, Path: path}); err != kbase.EOK {
		return err
	}
	inst.imu.Lock()
	delete(inst.inodes, path)
	inst.imu.Unlock()
	return kbase.EOK
}

func (o *inodeOps) Rename(task *kbase.Task, oldDir *vfs.Inode, oldName string, newDir *vfs.Inode, newName string) kbase.Errno {
	inst := o.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	oldPath, err := pathOf(oldDir, oldName)
	if err != kbase.EOK {
		return err
	}
	newPath, err := pathOf(newDir, newName)
	if err != kbase.EOK {
		return err
	}
	// A replacing rename unlinks the target; same orphan contract as
	// Unlink for any descriptors still open on it. Self-rename is a
	// no-op and must not orphan the still-linked file.
	var keep *orphanFile
	if oldPath != newPath {
		keep = inst.captureOrphan(newPath)
	}
	if err := inst.do(Record{Kind: OpRename, Path: oldPath, Path2: newPath}); err != kbase.EOK {
		return err
	}
	inst.adoptOrphan(newPath, keep)
	// Paths moved: inode descriptors keyed by the old path must keep
	// following the file, because open descriptors hold them — so
	// rekey the moved subtree (rewriting each snode's path) instead of
	// dropping it. Dropping would alias the path to two live inodes
	// (the fd's stale one and a freshly resolved one), splitting size
	// and content views (fuzzer-found via a self-rename). Descriptors
	// under a replaced target are gone for good and are dropped.
	inst.imu.Lock()
	moved := make(map[string]*vfs.Inode)
	for p, ino := range inst.inodes {
		switch {
		case p == oldPath:
			moved[newPath] = ino
		case strings.HasPrefix(p, oldPath+"/"):
			moved[newPath+p[len(oldPath):]] = ino
		case oldPath != newPath && (p == newPath || strings.HasPrefix(p, newPath+"/")):
			// replaced target subtree: descriptor is dead
		default:
			continue
		}
		delete(inst.inodes, p)
	}
	for np, ino := range moved {
		if sn, ok := vfs.PrivateAs[*snode](ino); ok {
			sn.path = np
		}
		inst.inodes[np] = ino
	}
	inst.imu.Unlock()
	return kbase.EOK
}

func (o *inodeOps) ReadDir(task *kbase.Task, dir *vfs.Inode) ([]vfs.DirEntry, kbase.Errno) {
	inst := o.inst
	inst.nsLock.DownRead(task)
	defer inst.nsLock.UpRead(task)
	sn, ok := vfs.PrivateAs[*snode](dir)
	if !ok {
		return nil, kbase.EUCLEAN
	}
	names, isDir, err := inst.st.list(sn.path)
	if err != kbase.EOK {
		return nil, err
	}
	out := make([]vfs.DirEntry, len(names))
	for i, n := range names {
		mode := vfs.ModeRegular
		if isDir[i] {
			mode = vfs.ModeDir
		}
		child := sn.path + "/" + n
		if sn.path == "" {
			child = n
		}
		ino := inst.inodeFor(child, isDir[i])
		out[i] = vfs.DirEntry{Name: n, Ino: ino.Ino, Mode: mode}
	}
	return out, kbase.EOK
}

// --- FileOps ---

// writePlan is the typed token payload carried from WriteBegin to
// WriteEnd: the Step-2 replacement for the void* handoff, now riding
// inside the VFS's WriteState envelope.
type writePlan struct {
	path string
	off  int64
	n    int
}

const writeIssuer = "safefs.write"

type fileOps struct {
	inst *fsInstance
}

func (fo *fileOps) Read(task *kbase.Task, ino *vfs.Inode, buf []byte, off int64) (int, kbase.Errno) {
	inst := fo.inst
	inst.nsLock.DownRead(task)
	defer inst.nsLock.UpRead(task)
	sn, ok := vfs.PrivateAs[*snode](ino)
	if !ok {
		return 0, kbase.EUCLEAN
	}
	if sn.orphan != nil {
		n := 0
		if off < int64(len(sn.orphan.data)) {
			n = copy(buf, sn.orphan.data[off:])
		}
		return n, kbase.EOK
	}
	return inst.st.readFile(sn.path, buf, off)
}

func (fo *fileOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	sn, ok := vfs.PrivateAs[*snode](ino)
	if !ok {
		return vfs.WriteState{}, kbase.EUCLEAN
	}
	if off < 0 || n < 0 {
		return vfs.WriteState{}, kbase.EINVAL
	}
	tok := typedapi.Issue(writeIssuer, writePlan{path: sn.path, off: off, n: n})
	return vfs.NewWriteState(tok), kbase.EOK
}

func (fo *fileOps) WriteCopy(task *kbase.Task, ino *vfs.Inode, off int64, data []byte, private vfs.WriteState) (int, kbase.Errno) {
	tok, ok := vfs.WriteStateAs[*typedapi.Token[writePlan]](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "safefs", "write_copy private is not a write token")
		return 0, kbase.EUCLEAN
	}
	plan, err := tok.Peek(writeIssuer)
	if err != kbase.EOK {
		return 0, err
	}
	inst := fo.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	if sn, ok := vfs.PrivateAs[*snode](ino); ok && sn.orphan != nil {
		// Orphan write: mutate the stash directly, no record. The
		// name is gone, so the spec (a namespace model) has nothing
		// to say, and a crash discards the file regardless.
		end := off + int64(len(data))
		if end > int64(len(sn.orphan.data)) {
			grown := make([]byte, end)
			copy(grown, sn.orphan.data)
			sn.orphan.data = grown
		}
		copy(sn.orphan.data[off:], data)
		return len(data), kbase.EOK
	}
	// data is read once: the log append copies it into the log image,
	// and the file is updated from that logged copy.
	if err := inst.do(Record{Kind: OpWrite, Path: plan.path, Off: off, Data: data}); err != kbase.EOK {
		return 0, err
	}
	return len(data), kbase.EOK
}

func (fo *fileOps) WriteEnd(task *kbase.Task, ino *vfs.Inode, off int64, n int, private vfs.WriteState) kbase.Errno {
	tok, ok := vfs.WriteStateAs[*typedapi.Token[writePlan]](private)
	if !ok {
		kbase.Oops(kbase.OopsTypeConfusion, "safefs", "write_end private is not a write token")
		return kbase.EUCLEAN
	}
	plan, err := tok.Redeem(writeIssuer)
	if err != kbase.EOK {
		return err
	}
	inst := fo.inst
	inst.nsLock.DownRead(task)
	defer inst.nsLock.UpRead(task)
	if sn, ok := vfs.PrivateAs[*snode](ino); ok && sn.orphan != nil {
		ino.SizeWrite(task, int64(len(sn.orphan.data)))
		return kbase.EOK
	}
	if size, e := inst.st.fileSize(plan.path); e == kbase.EOK {
		ino.SizeWrite(task, size)
	}
	return kbase.EOK
}

func (fo *fileOps) Truncate(task *kbase.Task, ino *vfs.Inode, size int64) kbase.Errno {
	inst := fo.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	sn, ok := vfs.PrivateAs[*snode](ino)
	if !ok {
		return kbase.EUCLEAN
	}
	if sn.orphan != nil {
		switch {
		case size < int64(len(sn.orphan.data)):
			sn.orphan.data = sn.orphan.data[:size]
		case size > int64(len(sn.orphan.data)):
			grown := make([]byte, size)
			copy(grown, sn.orphan.data)
			sn.orphan.data = grown
		}
		ino.SizeWrite(task, size)
		return kbase.EOK
	}
	if err := inst.do(Record{Kind: OpTruncate, Path: sn.path, Off: size}); err != kbase.EOK {
		return err
	}
	ino.SizeWrite(task, size)
	return kbase.EOK
}

func (fo *fileOps) Fsync(task *kbase.Task, ino *vfs.Inode) kbase.Errno {
	inst := fo.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	return inst.store.sync()
}

// Release implements vfs.ReleaseOps: drop the orphan stash once the
// last descriptor is gone. The buffer was the file's only remaining
// incarnation, so this is the actual point of data destruction.
func (fo *fileOps) Release(task *kbase.Task, ino *vfs.Inode) {
	inst := fo.inst
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	if sn, ok := vfs.PrivateAs[*snode](ino); ok {
		sn.orphan = nil
	}
}

// --- SuperBlockOps ---

func (inst *fsInstance) Statfs(task *kbase.Task) (vfs.StatFS, kbase.Errno) {
	inst.nsLock.DownRead(task)
	defer inst.nsLock.UpRead(task)
	return vfs.StatFS{
		TotalBlocks: inst.store.sb.Blocks,
		FreeBlocks:  inst.store.sb.LogLen - inst.store.logPos,
		TotalInodes: uint64(len(inst.st.files) + len(inst.st.dirs)),
		FSName:      "safefs",
	}, kbase.EOK
}

func (inst *fsInstance) SyncFS(task *kbase.Task) kbase.Errno {
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	return inst.store.sync()
}

func (inst *fsInstance) Unmount(task *kbase.Task) kbase.Errno {
	inst.nsLock.DownWrite(task)
	defer inst.nsLock.UpWrite(task)
	if err := inst.store.checkpoint(inst.st); err != kbase.EOK {
		return err
	}
	inst.st.free()
	return kbase.EOK
}

// Checkpoint forces a checkpoint (exposed for tooling and tests).
func (inst *fsInstance) Checkpoint() kbase.Errno {
	inst.nsLock.DownWrite(nil)
	defer inst.nsLock.UpWrite(nil)
	return inst.store.checkpoint(inst.st)
}

// InstanceOf extracts the safefs instance from a mounted superblock.
//
//kerncheck:ignore deadexport checkpoint handle for the safefs checkpoint ablation benchmark
func InstanceOf(sb *vfs.SuperBlock) (interface{ Checkpoint() kbase.Errno }, bool) {
	inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
	return inst, ok
}

// --- module framework registration ---

// Module describes safefs to the module registry.
type Module struct{}

// IfaceName is the registry interface safefs implements.
const IfaceName = "storage.fs"

// ModuleName implements module.Module.
func (Module) ModuleName() string { return "safefs" }

// Implements implements module.Module.
func (Module) Implements() module.Interface {
	return module.Interface{
		Name: IfaceName, Version: 1,
		Doc:     "file system behind the VFS modular interface",
		Methods: []string{"Mount"},
	}
}

// Level implements module.Module: safefs carries its own checked
// functional specification (see spec_adapter.go), the top rung.
func (Module) Level() module.SafetyLevel { return module.LevelVerified }
