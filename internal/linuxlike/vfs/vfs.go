package vfs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

// Tracepoints (args documented in DESIGN.md's catalog). vfs:lookup
// covers the dcache too: a1 says whether the dentry cache answered.
var tpLookup = ktrace.New("vfs:lookup") // a0=dir ino, a1=1 on dcache hit

// Open flags, mirroring the fcntl constants the simulated kernel
// understands.
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreate = 0x40
	OExcl   = 0x80
	OTrunc  = 0x200
	OAppend = 0x400

	accessMask = 0x3
)

// File is one open file description.
type File struct {
	Inode *Inode
	Flags int

	// path is the canonical path the descriptor was opened by; the
	// hot-swap migration uses it to re-point the descriptor at the
	// file's copy on the new file system (RemapDescriptors).
	path string

	// opener is the task that opened the descriptor; a close without
	// task context releases on its behalf (see doClose).
	opener *kbase.Task

	mu  sync.Mutex
	pos int64
}

// readable reports whether the file was opened for reading.
func (f *File) readable() bool {
	a := f.Flags & accessMask
	return a == ORdOnly || a == ORdWr
}

// writable reports whether the file was opened for writing.
func (f *File) writable() bool {
	a := f.Flags & accessMask
	return a == OWrOnly || a == ORdWr
}

// mount is one entry in the mount table.
type mount struct {
	path string // canonical dir path, "/" or "/a/b"
	sb   *SuperBlock
}

// boundaryDetector is the hook a type-confusion detector implements
// (satisfied structurally by typedapi.Detector). The VFS reports the
// inner value of every WriteState it ferries through the write
// protocol, tagged with the owning file system type, so a
// learn-then-enforce detector can catch §4.2-style confusion without
// the VFS knowing any concrete types. The contract is unexported: the
// untyped hand-off is an implementation detail of instrumentation,
// not part of the VFS's typed surface.
type boundaryDetector interface {
	Check(boundary string, v any) bool
}

// VFS is the virtual file system switch: registered file system
// types, the mount table, the dentry cache, and the open-file table.
type VFS struct {
	// mu guards the tables below. Hot read paths (mount resolution,
	// fd lookup) take the read side so they scale across CPUs; only
	// registration, mount/unmount and open/close take the write side.
	mu      sync.RWMutex
	fstypes map[string]FileSystemType
	mounts  []mount // sorted by descending path length
	files   map[int]*File
	nextFD  int
	dcache  *dcache
	clock   *kbase.Clock

	detector boundaryDetector

	// gate, when installed, wraps every public operation in a
	// crash-containment compartment (see boundary.go).
	gate atomic.Pointer[gate.Gate]
}

// New creates an empty VFS.
func New(clock *kbase.Clock) *VFS {
	if clock == nil {
		clock = kbase.NewClock()
	}
	return &VFS{
		fstypes: make(map[string]FileSystemType),
		files:   make(map[int]*File),
		nextFD:  3, // 0..2 reserved, as tradition demands
		dcache:  newDcache(4096),
		clock:   clock,
	}
}

// RegisterFS registers a file system type.
func (v *VFS) RegisterFS(fs FileSystemType) kbase.Errno {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.fstypes[fs.Name()]; dup {
		return kbase.EEXIST
	}
	v.fstypes[fs.Name()] = fs
	return kbase.EOK
}

// CleanPath canonicalizes an absolute path lexically: collapses
// slashes, resolves "." and "..". Returns "" for non-absolute input.
// An already canonical path is returned as is, without allocating.
func CleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		return ""
	}
	if isClean(p) {
		return p
	}
	parts := strings.Split(p, "/")
	var stack []string
	for _, c := range parts {
		switch c {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, c)
		}
	}
	return "/" + strings.Join(stack, "/")
}

// isClean reports whether the absolute path p is canonical: "/" or
// components that are neither empty, "." nor "..", with no trailing
// slash.
func isClean(p string) bool {
	if p == "/" {
		return true
	}
	for rest, more := p[1:], true; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		if c == "" || c == "." || c == ".." {
			return false
		}
	}
	return true
}

// doMount mounts fstype at path with fs-specific data. Path must be "/"
// or an existing directory on an already-mounted file system.
func (v *VFS) doMount(task *kbase.Task, path, fstype string, data MountData) kbase.Errno {
	path = CleanPath(path)
	if path == "" {
		return kbase.EINVAL
	}
	v.mu.RLock()
	fs, ok := v.fstypes[fstype]
	v.mu.RUnlock()
	if !ok {
		return kbase.ENODEV
	}
	if path != "/" {
		ino, err := v.doResolve(task, path)
		if err != kbase.EOK {
			return err
		}
		if !ino.Mode.IsDir() {
			return kbase.ENOTDIR
		}
	}
	v.mu.Lock()
	for _, m := range v.mounts {
		if m.path == path {
			v.mu.Unlock()
			return kbase.EBUSY
		}
	}
	v.mu.Unlock()

	sb, err := fs.Mount(task, data)
	if err != kbase.EOK {
		return err
	}
	v.mu.Lock()
	v.mounts = append(v.mounts, mount{path: path, sb: sb})
	sort.Slice(v.mounts, func(i, j int) bool {
		return len(v.mounts[i].path) > len(v.mounts[j].path)
	})
	v.mu.Unlock()
	return kbase.EOK
}

// doUnmount detaches the file system at path.
func (v *VFS) doUnmount(task *kbase.Task, path string) kbase.Errno {
	path = CleanPath(path)
	v.mu.Lock()
	idx := -1
	for i, m := range v.mounts {
		if m.path == path {
			idx = i
			break
		}
	}
	if idx < 0 {
		v.mu.Unlock()
		return kbase.EINVAL
	}
	sb := v.mounts[idx].sb
	// Refuse while files are open on it.
	for _, f := range v.files {
		if f.Inode.Sb == sb {
			v.mu.Unlock()
			return kbase.EBUSY
		}
	}
	v.mounts = append(v.mounts[:idx], v.mounts[idx+1:]...)
	v.mu.Unlock()
	v.dcache.invalidateSB(sb)
	if sb.Ops != nil {
		return sb.Ops.Unmount(task)
	}
	return kbase.EOK
}

// mountFor finds the mount owning path and the path remainder within
// it. Mount paths are sorted longest-first, so the first prefix match
// is the deepest mount.
func (v *VFS) mountFor(path string) (*SuperBlock, string, kbase.Errno) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, m := range v.mounts {
		if m.path == "/" {
			return m.sb, strings.TrimPrefix(path, "/"), kbase.EOK
		}
		if path == m.path {
			return m.sb, "", kbase.EOK
		}
		if strings.HasPrefix(path, m.path+"/") {
			return m.sb, path[len(m.path)+1:], kbase.EOK
		}
	}
	return nil, "", kbase.ENOENT
}

// doResolve walks path to an inode.
func (v *VFS) doResolve(task *kbase.Task, path string) (*Inode, kbase.Errno) {
	ino, _, _, err := v.resolveParent(task, path, false)
	return ino, err
}

// resolveParent resolves path. If wantParent, it returns the parent
// directory inode plus the final component; otherwise it returns the
// target inode itself. The walk goes through the dentry cache and
// uses the file systems' ERR_PTR-returning Lookup.
func (v *VFS) resolveParent(task *kbase.Task, path string, wantParent bool) (*Inode, *Inode, string, kbase.Errno) {
	path = CleanPath(path)
	if path == "" {
		return nil, nil, "", kbase.EINVAL
	}
	sb, rest, err := v.mountFor(path)
	if err != kbase.EOK {
		return nil, nil, "", err
	}
	cur := sb.Root
	for more := rest != ""; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		if len(c) > MaxNameLen {
			return nil, nil, "", kbase.ENAMETOOLONG
		}
		last := !more
		if wantParent && last {
			if !cur.Mode.IsDir() {
				return nil, nil, "", kbase.ENOTDIR
			}
			return nil, cur, c, kbase.EOK
		}
		if !cur.Mode.IsDir() {
			return nil, nil, "", kbase.ENOTDIR
		}
		next, e := v.lookupCached(task, cur, c)
		if e != kbase.EOK {
			return nil, nil, "", e
		}
		cur = next
	}
	if wantParent {
		// Path was the mount root itself; it has no parent here.
		return nil, nil, "", kbase.EINVAL
	}
	return cur, nil, "", kbase.EOK
}

// lookupCached consults the dcache, falling back to the file system's
// Lookup and caching the result (including negatives).
func (v *VFS) lookupCached(task *kbase.Task, dir *Inode, name string) (*Inode, kbase.Errno) {
	if ino, ok := v.dcache.lookup(dir.Sb, dir.Ino, name); ok {
		tpLookup.Emit(task.ID(), dir.Ino, 1)
		if ino == nil {
			return nil, kbase.ENOENT
		}
		return ino, kbase.EOK
	}
	tpLookup.Emit(task.ID(), dir.Ino, 0)
	child, e := dir.Ops.LookupTyped(task, dir, name).Get()
	if e != kbase.EOK {
		if e == kbase.ENOENT {
			v.dcache.insert(dir.Sb, dir.Ino, name, nil) // negative entry
		}
		return nil, e
	}
	v.dcache.insert(dir.Sb, dir.Ino, name, child)
	return child, kbase.EOK
}

// CollectMetrics enumerates the VFS counters — dentry cache and open-
// file table — for the ktrace metrics registry (register with
// m.Register("vfs", v.CollectMetrics)).
func (v *VFS) CollectMetrics(emit func(name string, value uint64)) {
	hits, misses, size := v.dcache.stats()
	emit("dcache_hits", hits)
	emit("dcache_misses", misses)
	emit("dcache_size", uint64(size))
	emit("open_files", uint64(v.OpenFiles()))
}

// doOpen opens path, honoring OCreate/OExcl/OTrunc, and returns a file
// descriptor.
func (v *VFS) doOpen(task *kbase.Task, path string, flags int) (int, kbase.Errno) {
	ino, err := v.doResolve(task, path)
	switch {
	case err == kbase.ENOENT && flags&OCreate != 0:
		_, parent, name, perr := v.resolveParent(task, path, true)
		if perr != kbase.EOK {
			return -1, perr
		}
		created, cerr := parent.Ops.CreateTyped(task, parent, name, ModeRegular).Get()
		if cerr != kbase.EOK {
			return -1, cerr
		}
		v.dcache.invalidate(parent.Sb, parent.Ino, name)
		ino = created
	case err != kbase.EOK:
		return -1, err
	case flags&OCreate != 0 && flags&OExcl != 0:
		return -1, kbase.EEXIST
	}
	if ino.Mode.IsDir() && flags&accessMask != ORdOnly {
		return -1, kbase.EISDIR
	}
	f := &File{Inode: ino, Flags: flags, path: CleanPath(path), opener: task}
	if flags&OTrunc != 0 && f.writable() && ino.Mode.IsRegular() {
		if err := ino.FileOps.Truncate(task, ino, 0); err != kbase.EOK {
			return -1, err
		}
	}
	v.mu.Lock()
	fd := v.nextFD
	v.nextFD++
	v.files[fd] = f
	ino.openRef()
	v.mu.Unlock()
	return fd, kbase.EOK
}

// doClose closes a descriptor. When it was the inode's last open
// descriptor, the owning file system's Release hook (if implemented)
// runs outside the file-table lock — it may do journaled I/O to
// reclaim an orphan's storage. A close without task context releases
// on behalf of the task that opened the descriptor: lockdep tracks
// held locks per task and every task-less caller shares one identity,
// so concurrent task-less closes would otherwise look like one task
// taking two inode locks at once.
func (v *VFS) doClose(task *kbase.Task, fd int) kbase.Errno {
	v.mu.Lock()
	f, ok := v.files[fd]
	if !ok {
		v.mu.Unlock()
		return kbase.EBADF
	}
	delete(v.files, fd)
	v.mu.Unlock()
	if task == nil {
		task = f.opener
	}
	if f.Inode.openUnref() == 0 {
		if r, ok := f.Inode.FileOps.(ReleaseOps); ok {
			r.Release(task, f.Inode)
		}
	}
	return kbase.EOK
}

// file fetches an open file by descriptor.
func (v *VFS) file(fd int) (*File, kbase.Errno) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	f, ok := v.files[fd]
	if !ok {
		return nil, kbase.EBADF
	}
	return f, kbase.EOK
}

// OpenFiles returns the number of open descriptors.
func (v *VFS) OpenFiles() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.files)
}

// doRead reads from the file position.
func (v *VFS) doRead(task *kbase.Task, fd int, buf []byte) (int, kbase.Errno) {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return 0, err
	}
	if !f.readable() {
		return 0, kbase.EBADF
	}
	if f.Inode.Mode.IsDir() {
		// Directories open read-only but read(2) on them is EISDIR,
		// uniformly across modules (fuzzer-found: extlike returned
		// EOF, safefs ENOENT).
		return 0, kbase.EISDIR
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, e := f.Inode.FileOps.Read(task, f.Inode, buf, f.pos)
	f.pos += int64(n)
	return n, e
}

// doPread reads at an explicit offset without moving the position.
func (v *VFS) doPread(task *kbase.Task, fd int, buf []byte, off int64) (int, kbase.Errno) {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return 0, err
	}
	if !f.readable() {
		return 0, kbase.EBADF
	}
	if f.Inode.Mode.IsDir() {
		return 0, kbase.EISDIR
	}
	if off < 0 {
		return 0, kbase.EINVAL
	}
	return f.Inode.FileOps.Read(task, f.Inode, buf, off)
}

// doWrite writes at the file position (or end, with OAppend) using the
// legacy write_begin / write_copy / write_end protocol — the VFS
// ferries the file system's untyped private state between the calls.
func (v *VFS) doWrite(task *kbase.Task, fd int, data []byte) (int, kbase.Errno) {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return 0, err
	}
	if !f.writable() {
		return 0, kbase.EBADF
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	off := f.pos
	if f.Flags&OAppend != 0 {
		// One of the call paths that DOES take i_lock for i_size.
		off = f.Inode.SizeRead(task)
	}
	n, e := v.writeAt(task, f.Inode, data, off)
	f.pos = off + int64(n)
	return n, e
}

// doPwrite writes at an explicit offset.
func (v *VFS) doPwrite(task *kbase.Task, fd int, data []byte, off int64) (int, kbase.Errno) {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return 0, err
	}
	if !f.writable() {
		return 0, kbase.EBADF
	}
	if off < 0 {
		return 0, kbase.EINVAL
	}
	return v.writeAt(task, f.Inode, data, off)
}

// writeAt drives the three-phase legacy write protocol.
func (v *VFS) writeAt(task *kbase.Task, ino *Inode, data []byte, off int64) (int, kbase.Errno) {
	private, err := ino.FileOps.WriteBegin(task, ino, off, len(data))
	if err != kbase.EOK {
		return 0, err
	}
	v.mu.RLock()
	det := v.detector
	v.mu.RUnlock()
	if det != nil {
		// Unwrap the envelope so the detector learns the file
		// system's own token type, not vfs.WriteState.
		det.Check("vfs.write_private."+ino.Sb.FSType, private.v)
	}
	n, err := ino.FileOps.WriteCopy(task, ino, off, data, private)
	if err != kbase.EOK && n == 0 {
		return 0, err
	}
	// A short copy still ends the write with the n bytes it moved, as
	// generic_perform_write does, so i_size covers what the write
	// returns.
	if endErr := ino.FileOps.WriteEnd(task, ino, off, n, private); endErr != kbase.EOK {
		return n, endErr
	}
	ino.Mtime = v.clock.Advance(1)
	return n, err
}

// Whence values for Lseek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// doLseek repositions the file offset.
func (v *VFS) doLseek(task *kbase.Task, fd int, off int64, whence int) (int64, kbase.Errno) {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.pos
	case SeekEnd:
		base = f.Inode.SizeRead(task)
	default:
		return 0, kbase.EINVAL
	}
	np := base + off
	if np < 0 {
		return 0, kbase.EINVAL
	}
	f.pos = np
	return np, kbase.EOK
}

// doFsync flushes one file.
func (v *VFS) doFsync(task *kbase.Task, fd int) kbase.Errno {
	f, err := v.file(fd)
	if err != kbase.EOK {
		return err
	}
	return f.Inode.FileOps.Fsync(task, f.Inode)
}

// doTruncate sets a file's size by path.
func (v *VFS) doTruncate(task *kbase.Task, path string, size int64) kbase.Errno {
	if size < 0 {
		return kbase.EINVAL
	}
	ino, err := v.doResolve(task, path)
	if err != kbase.EOK {
		return err
	}
	if ino.Mode.IsDir() {
		return kbase.EISDIR
	}
	return ino.FileOps.Truncate(task, ino, size)
}

// doStat returns metadata for path.
func (v *VFS) doStat(task *kbase.Task, path string) (Stat, kbase.Errno) {
	ino, err := v.doResolve(task, path)
	if err != kbase.EOK {
		return Stat{}, err
	}
	return Stat{
		Ino:   ino.Ino,
		Mode:  ino.Mode,
		Size:  ino.SizeRead(task),
		Nlink: ino.Nlink,
		Ctime: ino.Ctime,
		Mtime: ino.Mtime,
	}, kbase.EOK
}

// doMkdir creates a directory.
func (v *VFS) doMkdir(task *kbase.Task, path string) kbase.Errno {
	_, parent, name, err := v.resolveParent(task, path, true)
	if err != kbase.EOK {
		return err
	}
	if _, e := v.lookupCached(task, parent, name); e == kbase.EOK {
		return kbase.EEXIST
	}
	if _, e := parent.Ops.MkdirTyped(task, parent, name).Get(); e != kbase.EOK {
		return e
	}
	v.dcache.invalidate(parent.Sb, parent.Ino, name)
	return kbase.EOK
}

// doRmdir removes an empty directory.
func (v *VFS) doRmdir(task *kbase.Task, path string) kbase.Errno {
	_, parent, name, err := v.resolveParent(task, path, true)
	if err != kbase.EOK {
		return err
	}
	if err := parent.Ops.Rmdir(task, parent, name); err != kbase.EOK {
		return err
	}
	v.dcache.invalidate(parent.Sb, parent.Ino, name)
	return kbase.EOK
}

// doUnlink removes a file.
func (v *VFS) doUnlink(task *kbase.Task, path string) kbase.Errno {
	_, parent, name, err := v.resolveParent(task, path, true)
	if err != kbase.EOK {
		return err
	}
	if err := parent.Ops.Unlink(task, parent, name); err != kbase.EOK {
		return err
	}
	v.dcache.invalidate(parent.Sb, parent.Ino, name)
	return kbase.EOK
}

// doRename moves oldPath to newPath. Cross-mount renames return EXDEV.
func (v *VFS) doRename(task *kbase.Task, oldPath, newPath string) kbase.Errno {
	// Ancestry guard: moving a directory beneath itself would detach
	// it from the tree. Only the VFS sees both full paths, so the
	// check lives here (as Linux's lock_rename subtree check does);
	// file systems see just (parent, name) pairs.
	if strings.HasPrefix(CleanPath(newPath), CleanPath(oldPath)+"/") {
		return kbase.EINVAL
	}
	_, oldParent, oldName, err := v.resolveParent(task, oldPath, true)
	if err != kbase.EOK {
		return err
	}
	_, newParent, newName, err := v.resolveParent(task, newPath, true)
	if err != kbase.EOK {
		return err
	}
	if oldParent.Sb != newParent.Sb {
		return kbase.EXDEV
	}
	if err := oldParent.Ops.Rename(task, oldParent, oldName, newParent, newName); err != kbase.EOK {
		return err
	}
	v.dcache.invalidate(oldParent.Sb, oldParent.Ino, oldName)
	v.dcache.invalidate(newParent.Sb, newParent.Ino, newName)
	// A renamed directory changes the meaning of every cached path
	// beneath it; drop conservatively.
	v.dcache.invalidateDir(oldParent.Sb, oldParent.Ino)
	v.dcache.invalidateDir(newParent.Sb, newParent.Ino)
	return kbase.EOK
}

// doReadDir lists a directory.
func (v *VFS) doReadDir(task *kbase.Task, path string) ([]DirEntry, kbase.Errno) {
	ino, err := v.doResolve(task, path)
	if err != kbase.EOK {
		return nil, err
	}
	if !ino.Mode.IsDir() {
		return nil, kbase.ENOTDIR
	}
	ents, e := ino.Ops.ReadDir(task, ino)
	if e != kbase.EOK {
		return nil, e
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, kbase.EOK
}

// doStatfs reports usage of the file system owning path.
func (v *VFS) doStatfs(task *kbase.Task, path string) (StatFS, kbase.Errno) {
	ino, err := v.doResolve(task, path)
	if err != kbase.EOK {
		return StatFS{}, err
	}
	if ino.Sb.Ops == nil {
		return StatFS{}, kbase.ENOSYS
	}
	return ino.Sb.Ops.Statfs(task)
}

// doSyncAll flushes every mounted file system.
func (v *VFS) doSyncAll(task *kbase.Task) kbase.Errno {
	v.mu.Lock()
	sbs := make([]*SuperBlock, 0, len(v.mounts))
	for _, m := range v.mounts {
		sbs = append(sbs, m.sb)
	}
	v.mu.Unlock()
	var first kbase.Errno = kbase.EOK
	for _, sb := range sbs {
		if sb.Ops == nil {
			continue
		}
		if err := sb.Ops.SyncFS(task); err != kbase.EOK && first == kbase.EOK {
			first = err
		}
	}
	return first
}
