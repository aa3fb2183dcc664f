package safefs

import (
	"encoding/binary"
	"sort"
	"strings"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/own"
)

// fstate is the in-memory file system state: directories as a set of
// paths and file contents in ownership cells. Paths are
// slash-separated and rooted at "" (the root directory); "a/b" is
// file b in directory a.
//
// fstate IS (up to the ownership wrapping) the abstract model the
// spec uses — which is the point: the implementation's state was
// designed so the abstraction function is nearly the identity,
// §4.4's "the implementation explains how to interpret its data
// structure as an instance of the model".
type fstate struct {
	dirs    map[string]bool // "" always present
	files   map[string]own.Owned[[]byte]
	checker *own.Checker
}

func newFstate(checker *own.Checker) *fstate {
	return &fstate{
		dirs:    map[string]bool{"": true},
		files:   make(map[string]own.Owned[[]byte]),
		checker: checker,
	}
}

// parentOf splits "a/b/c" into "a/b". The root's parent is itself.
func parentOf(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return ""
	}
	return path[:i]
}

// apply executes one record against the state: canApply's check, then
// mutate. It is the transition function crash recovery replays the log
// through, and live operation runs the same two steps around its log
// commit (fsInstance.do) — replay cannot diverge from execution
// because they are the same code. Returns the errno the operation
// produces.
func (st *fstate) apply(r Record) kbase.Errno {
	if err := canApply(st, r); err != kbase.EOK {
		return err
	}
	return st.mutate(r)
}

// canApply checks a record against the current state without mutating
// it: every precondition of every operation lives here and nowhere
// else. It is the guard that keeps the on-disk log equal to the
// sequence of successful operations; TestApplyAgreesWithCanApply pins
// that apply fails exactly where it does.
func canApply(st *fstate, r Record) kbase.Errno {
	switch r.Kind {
	case OpCreate, OpMkdir:
		if !st.dirs[parentOf(r.Path)] {
			return kbase.ENOENT
		}
		if st.exists(r.Path) {
			return kbase.EEXIST
		}
		return kbase.EOK
	case OpUnlink:
		if _, ok := st.files[r.Path]; ok {
			return kbase.EOK
		}
		if st.dirs[r.Path] {
			return kbase.EISDIR
		}
		return kbase.ENOENT
	case OpRmdir:
		if !st.dirs[r.Path] {
			if _, isFile := st.files[r.Path]; isFile {
				return kbase.ENOTDIR
			}
			return kbase.ENOENT
		}
		if r.Path == "" {
			return kbase.EBUSY
		}
		if !st.dirEmpty(r.Path) {
			return kbase.ENOTEMPTY
		}
		return kbase.EOK
	case OpRename:
		if r.Path == "" || r.Path2 == "" {
			return kbase.EBUSY
		}
		if !st.dirs[parentOf(r.Path2)] {
			return kbase.ENOENT
		}
		if _, ok := st.files[r.Path]; ok {
			if st.dirs[r.Path2] {
				return kbase.EISDIR
			}
			return kbase.EOK
		}
		if !st.dirs[r.Path] {
			return kbase.ENOENT
		}
		if r.Path2 == r.Path {
			// POSIX: renaming a path onto itself is a successful
			// no-op, for directories as for files.
			return kbase.EOK
		}
		if strings.HasPrefix(r.Path2, r.Path+"/") {
			return kbase.EINVAL
		}
		if _, ok := st.files[r.Path2]; ok {
			// POSIX: a directory may not replace a non-directory.
			return kbase.ENOTDIR
		}
		if st.dirs[r.Path2] && !st.dirEmpty(r.Path2) {
			return kbase.ENOTEMPTY
		}
		// Target absent or an empty directory: both are renameable-over.
		return kbase.EOK
	case OpWrite, OpTruncate:
		if _, ok := st.files[r.Path]; !ok {
			return kbase.ENOENT
		}
		return kbase.EOK
	}
	return kbase.ENOSYS
}

// mutate executes a record canApply accepted. Its only failure is
// EBUSY, when the file's ownership cell is already borrowed.
func (st *fstate) mutate(r Record) kbase.Errno {
	switch r.Kind {
	case OpCreate:
		st.files[r.Path] = own.New(st.checker, "safefs:"+r.Path, []byte{})
	case OpMkdir:
		st.dirs[r.Path] = true
	case OpUnlink:
		st.files[r.Path].Free()
		delete(st.files, r.Path)
	case OpRmdir:
		delete(st.dirs, r.Path)
	case OpRename:
		st.rename(r.Path, r.Path2)
	case OpWrite:
		ok := st.files[r.Path].Use(func(data *[]byte) {
			end := r.Off + int64(len(r.Data))
			if end > int64(len(*data)) {
				grown := make([]byte, end)
				copy(grown, *data)
				*data = grown
			}
			copy((*data)[r.Off:], r.Data)
		})
		if !ok {
			return kbase.EBUSY
		}
	case OpTruncate:
		ok := st.files[r.Path].Use(func(data *[]byte) {
			size := r.Off
			switch {
			case size < int64(len(*data)):
				*data = (*data)[:size]
			case size > int64(len(*data)):
				grown := make([]byte, size)
				copy(grown, *data)
				*data = grown
			}
		})
		if !ok {
			return kbase.EBUSY
		}
	}
	return kbase.EOK
}

func (st *fstate) exists(path string) bool {
	if st.dirs[path] {
		return true
	}
	_, ok := st.files[path]
	return ok
}

func (st *fstate) dirEmpty(path string) bool {
	prefix := path + "/"
	for d := range st.dirs {
		if strings.HasPrefix(d, prefix) {
			return false
		}
	}
	for f := range st.files {
		if strings.HasPrefix(f, prefix) {
			return false
		}
	}
	return true
}

// rename moves old to new, a move canApply accepted. It implements the
// §4.4 model example: "the directory-rename operation may be modeled
// as a relation between old and new maps in which every path key with
// a given prefix is substituted with a new prefix" — and that is
// literally the implementation.
func (st *fstate) rename(old, new string) {
	if new == old {
		return // rename to self is a no-op (POSIX)
	}
	if f, ok := st.files[old]; ok {
		// File rename; replaces an existing file, never a directory.
		if existing, ok := st.files[new]; ok {
			existing.Free()
		}
		st.files[new] = f
		delete(st.files, old)
		return
	}
	delete(st.dirs, new) // an empty target directory is replaced by the move
	oldPrefix := old + "/"
	// Substitute the prefix on every key.
	for d := range st.dirs {
		if d == old {
			delete(st.dirs, d)
			st.dirs[new] = true
		} else if strings.HasPrefix(d, oldPrefix) {
			delete(st.dirs, d)
			st.dirs[new+"/"+d[len(oldPrefix):]] = true
		}
	}
	moved := make(map[string]own.Owned[[]byte])
	for f, v := range st.files {
		if strings.HasPrefix(f, oldPrefix) {
			moved[new+"/"+f[len(oldPrefix):]] = v
			delete(st.files, f)
		}
	}
	for f, v := range moved {
		st.files[f] = v
	}
}

// readFile copies file bytes at off into buf, returning bytes copied.
func (st *fstate) readFile(path string, buf []byte, off int64) (int, kbase.Errno) {
	f, ok := st.files[path]
	if !ok {
		return 0, kbase.ENOENT
	}
	n := 0
	ok2 := f.Read(func(data []byte) {
		if off < int64(len(data)) {
			n = copy(buf, data[off:])
		}
	})
	if !ok2 {
		return 0, kbase.EBUSY
	}
	return n, kbase.EOK
}

// fileSize returns the size of a file.
func (st *fstate) fileSize(path string) (int64, kbase.Errno) {
	f, ok := st.files[path]
	if !ok {
		return 0, kbase.ENOENT
	}
	var size int64
	if !f.Read(func(data []byte) { size = int64(len(data)) }) {
		return 0, kbase.EBUSY
	}
	return size, kbase.EOK
}

// list returns the names in a directory, sorted.
func (st *fstate) list(dir string) ([]string, []bool, kbase.Errno) {
	if !st.dirs[dir] {
		return nil, nil, kbase.ENOENT
	}
	prefix := ""
	if dir != "" {
		prefix = dir + "/"
	}
	type ent struct {
		name  string
		isDir bool
	}
	var ents []ent
	for d := range st.dirs {
		if d == "" || !strings.HasPrefix(d, prefix) {
			continue
		}
		rest := d[len(prefix):]
		if rest != "" && !strings.Contains(rest, "/") {
			ents = append(ents, ent{rest, true})
		}
	}
	for f := range st.files {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		rest := f[len(prefix):]
		if rest != "" && !strings.Contains(rest, "/") {
			ents = append(ents, ent{rest, false})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].name < ents[j].name })
	names := make([]string, len(ents))
	isDir := make([]bool, len(ents))
	for i, e := range ents {
		names[i] = e.name
		isDir[i] = e.isDir
	}
	return names, isDir, kbase.EOK
}

// free releases every ownership cell (unmount).
func (st *fstate) free() {
	for _, f := range st.files {
		f.Free()
	}
	st.files = make(map[string]own.Owned[[]byte])
}

// ckptPlan is the walk a checkpoint makes over the state: the sorted
// directory and file paths, and the byte length of their encoding.
type ckptPlan struct {
	dirs, files []string
	size        int
}

// planCheckpoint sorts the paths a checkpoint walks and sums their
// encoded length, so serialize can fill one exact-size image.
func (st *fstate) planCheckpoint() (ckptPlan, kbase.Errno) {
	p := ckptPlan{size: 8} // the two counts
	p.dirs = make([]string, 0, len(st.dirs))
	for d := range st.dirs {
		p.dirs = append(p.dirs, d)
		p.size += 4 + len(d)
	}
	sort.Strings(p.dirs)
	p.files = make([]string, 0, len(st.files))
	for f, cell := range st.files {
		p.files = append(p.files, f)
		n := 0
		if !cell.Read(func(data []byte) { n = len(data) }) {
			return ckptPlan{}, kbase.EBUSY
		}
		p.size += 4 + len(f) + 4 + n
	}
	sort.Strings(p.files)
	return p, kbase.EOK
}

// serialize encodes the whole state for a checkpoint into b, which
// holds exactly p.size bytes:
// dirCount, dirs..., fileCount, {path, content}...
// Strings are length-prefixed. The caller holds the state still
// between planCheckpoint and serialize.
func (st *fstate) serialize(p ckptPlan, b []byte) kbase.Errno {
	le := binary.LittleEndian
	pos := 0
	putU32 := func(v int) {
		le.PutUint32(b[pos:], uint32(v))
		pos += 4
	}
	putStr := func(s string) {
		putU32(len(s))
		pos += copy(b[pos:], s)
	}
	putU32(len(p.dirs))
	for _, d := range p.dirs {
		putStr(d)
	}
	putU32(len(p.files))
	for _, f := range p.files {
		putStr(f)
		ok := st.files[f].Read(func(data []byte) {
			putU32(len(data))
			pos += copy(b[pos:], data)
		})
		if !ok {
			return kbase.EBUSY
		}
	}
	return kbase.EOK
}

// deserializeState rebuilds a state from checkpoint bytes.
func deserializeState(b []byte, checker *own.Checker) (*fstate, kbase.Errno) {
	st := newFstate(checker)
	pos := 0
	getU32 := func() (uint32, bool) {
		if pos+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[pos:])
		pos += 4
		return v, true
	}
	getStr := func() (string, bool) {
		n, ok := getU32()
		if !ok || pos+int(n) > len(b) {
			return "", false
		}
		s := string(b[pos : pos+int(n)])
		pos += int(n)
		return s, true
	}
	nDirs, ok := getU32()
	if !ok {
		return nil, kbase.EUCLEAN
	}
	for i := uint32(0); i < nDirs; i++ {
		d, ok := getStr()
		if !ok {
			return nil, kbase.EUCLEAN
		}
		st.dirs[d] = true
	}
	nFiles, ok := getU32()
	if !ok {
		return nil, kbase.EUCLEAN
	}
	for i := uint32(0); i < nFiles; i++ {
		path, ok := getStr()
		if !ok {
			return nil, kbase.EUCLEAN
		}
		content, ok := getStr()
		if !ok {
			return nil, kbase.EUCLEAN
		}
		st.files[path] = own.New(checker, "safefs:"+path, []byte(content))
	}
	return st, kbase.EOK
}
