package safefs

import (
	"fmt"
	"sort"
	"strings"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

// The functional specification of safefs, in the paper's words: "a
// file system can be modeled as a map from path strings to file
// content bytes" (§4.4) — plus the set of directory paths.

// Abs is the abstract state.
type Abs struct {
	Dirs  map[string]bool
	Files map[string]string
}

func absClone(a Abs) Abs {
	out := Abs{Dirs: make(map[string]bool, len(a.Dirs)), Files: make(map[string]string, len(a.Files))}
	for d := range a.Dirs {
		out.Dirs[d] = true
	}
	for f, c := range a.Files {
		out.Files[f] = c
	}
	return out
}

// FSSpec returns the abstract model. Operations:
//
//	create(path) mkdir(path) unlink(path) rmdir(path)
//	rename(old, new) write(path, off, data) truncate(path, size)
//
//kerncheck:ignore deadexport paper artifact: safefs's functional specification, checked by the refinement and crash tests
func FSSpec() spec.Spec[Abs] {
	return spec.Spec[Abs]{
		Name: "safefs",
		Init: func() Abs {
			return Abs{Dirs: map[string]bool{"": true}, Files: map[string]string{}}
		},
		Step:     absStep,
		Equal:    absEqual,
		Describe: absDescribe,
	}
}

func absStep(s Abs, op spec.Op) (Abs, kbase.Errno) {
	exists := func(p string) bool {
		if s.Dirs[p] {
			return true
		}
		_, ok := s.Files[p]
		return ok
	}
	dirEmpty := func(p string) bool {
		prefix := p + "/"
		for d := range s.Dirs {
			if strings.HasPrefix(d, prefix) {
				return false
			}
		}
		for f := range s.Files {
			if strings.HasPrefix(f, prefix) {
				return false
			}
		}
		return true
	}
	switch op.Name {
	case "create", "mkdir":
		p := op.Args[0].(string)
		if !s.Dirs[parentOf(p)] {
			return s, kbase.ENOENT
		}
		if exists(p) {
			return s, kbase.EEXIST
		}
		n := absClone(s)
		if op.Name == "mkdir" {
			n.Dirs[p] = true
		} else {
			n.Files[p] = ""
		}
		return n, kbase.EOK
	case "unlink":
		p := op.Args[0].(string)
		if _, ok := s.Files[p]; !ok {
			if s.Dirs[p] {
				return s, kbase.EISDIR
			}
			return s, kbase.ENOENT
		}
		n := absClone(s)
		delete(n.Files, p)
		return n, kbase.EOK
	case "rmdir":
		p := op.Args[0].(string)
		if !s.Dirs[p] {
			if _, ok := s.Files[p]; ok {
				return s, kbase.ENOTDIR
			}
			return s, kbase.ENOENT
		}
		if p == "" {
			return s, kbase.EBUSY
		}
		if !dirEmpty(p) {
			return s, kbase.ENOTEMPTY
		}
		n := absClone(s)
		delete(n.Dirs, p)
		return n, kbase.EOK
	case "rename":
		old, new := op.Args[0].(string), op.Args[1].(string)
		if old == "" || new == "" {
			return s, kbase.EBUSY
		}
		if !s.Dirs[parentOf(new)] {
			return s, kbase.ENOENT
		}
		if content, ok := s.Files[old]; ok {
			if s.Dirs[new] {
				return s, kbase.EISDIR
			}
			n := absClone(s)
			delete(n.Files, old)
			n.Files[new] = content
			return n, kbase.EOK
		}
		if !s.Dirs[old] {
			return s, kbase.ENOENT
		}
		if new == old {
			// POSIX: rename to self is a successful no-op.
			return s, kbase.EOK
		}
		if strings.HasPrefix(new, old+"/") {
			return s, kbase.EINVAL
		}
		if _, ok := s.Files[new]; ok {
			// POSIX: a directory may not replace a non-directory.
			return s, kbase.ENOTDIR
		}
		if s.Dirs[new] && !dirEmpty(new) {
			return s, kbase.ENOTEMPTY
		}
		// Target absent or an empty directory; an empty target is
		// simply overwritten by the prefix substitution below.
		// The §4.4 model: substitute the prefix on every path key.
		n := Abs{Dirs: map[string]bool{}, Files: map[string]string{}}
		oldPrefix := old + "/"
		for d := range s.Dirs {
			switch {
			case d == old:
				n.Dirs[new] = true
			case strings.HasPrefix(d, oldPrefix):
				n.Dirs[new+"/"+d[len(oldPrefix):]] = true
			default:
				n.Dirs[d] = true
			}
		}
		for f, c := range s.Files {
			if strings.HasPrefix(f, oldPrefix) {
				n.Files[new+"/"+f[len(oldPrefix):]] = c
			} else {
				n.Files[f] = c
			}
		}
		return n, kbase.EOK
	case "write":
		p := op.Args[0].(string)
		off := op.Args[1].(int)
		data := op.Args[2].(string)
		content, ok := s.Files[p]
		if !ok {
			return s, kbase.ENOENT
		}
		n := absClone(s)
		end := off + len(data)
		buf := []byte(content)
		if end > len(buf) {
			grown := make([]byte, end)
			copy(grown, buf)
			buf = grown
		}
		copy(buf[off:], data)
		n.Files[p] = string(buf)
		return n, kbase.EOK
	case "truncate":
		p := op.Args[0].(string)
		size := op.Args[1].(int)
		content, ok := s.Files[p]
		if !ok {
			return s, kbase.ENOENT
		}
		n := absClone(s)
		switch {
		case size < len(content):
			n.Files[p] = content[:size]
		case size > len(content):
			n.Files[p] = content + strings.Repeat("\x00", size-len(content))
		}
		return n, kbase.EOK
	}
	return s, kbase.ENOSYS
}

func absEqual(a, b Abs) bool {
	if len(a.Dirs) != len(b.Dirs) || len(a.Files) != len(b.Files) {
		return false
	}
	for d := range a.Dirs {
		if !b.Dirs[d] {
			return false
		}
	}
	for f, c := range a.Files {
		if b.Files[f] != c {
			return false
		}
	}
	return true
}

func absDescribe(a Abs) string {
	var parts []string
	dirs := make([]string, 0, len(a.Dirs))
	for d := range a.Dirs {
		if d != "" {
			dirs = append(dirs, d+"/")
		}
	}
	sort.Strings(dirs)
	parts = append(parts, dirs...)
	files := make([]string, 0, len(a.Files))
	for f := range a.Files {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		c := a.Files[f]
		if len(c) > 12 {
			c = c[:12] + "..."
		}
		parts = append(parts, fmt.Sprintf("%s=%q", f, c))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// recordOf translates a spec.Op into the logged Record.
func recordOf(op spec.Op) (Record, kbase.Errno) {
	switch op.Name {
	case "create":
		return Record{Kind: OpCreate, Path: op.Args[0].(string)}, kbase.EOK
	case "mkdir":
		return Record{Kind: OpMkdir, Path: op.Args[0].(string)}, kbase.EOK
	case "unlink":
		return Record{Kind: OpUnlink, Path: op.Args[0].(string)}, kbase.EOK
	case "rmdir":
		return Record{Kind: OpRmdir, Path: op.Args[0].(string)}, kbase.EOK
	case "rename":
		return Record{Kind: OpRename, Path: op.Args[0].(string), Path2: op.Args[1].(string)}, kbase.EOK
	case "write":
		return Record{
			Kind: OpWrite, Path: op.Args[0].(string),
			Off: int64(op.Args[1].(int)), Data: []byte(op.Args[2].(string)),
		}, kbase.EOK
	case "truncate":
		return Record{Kind: OpTruncate, Path: op.Args[0].(string), Off: int64(op.Args[1].(int))}, kbase.EOK
	}
	return Record{}, kbase.ENOSYS
}

// SpecAdapter hooks a real safefs instance (on a simulated device) to
// the checking framework. It implements spec.CrashImpl[Abs].
type SpecAdapter struct {
	Blocks    uint64
	BlockSize int
	// SyncOnCommit selects the durability mode under check.
	SyncOnCommit bool
	// Seed drives crash-subset sampling.
	Seed uint64

	dev     *blockdev.Device
	inst    *fsInstance
	checker *own.Checker
	rng     *kbase.Rng
}

var _ spec.CrashImpl[Abs] = (*SpecAdapter)(nil)

// Reset implements spec.Impl: fresh device, format, mount.
func (a *SpecAdapter) Reset() kbase.Errno {
	if a.Blocks == 0 {
		a.Blocks = 512
	}
	if a.BlockSize == 0 {
		a.BlockSize = 256
	}
	if a.rng == nil {
		a.rng = kbase.NewRng(a.Seed + 1)
	}
	a.dev = blockdev.New(blockdev.Config{
		Blocks: a.Blocks, BlockSize: a.BlockSize, Rng: kbase.NewRng(a.Seed + 2),
	})
	if err := Format(a.dev); err != kbase.EOK {
		return err
	}
	a.checker = own.NewChecker(own.PolicyRecord)
	fs := &FS{SyncOnCommit: a.SyncOnCommit}
	sb, err := fs.Mount(nil, vfs.NewMountData(&MountData{Disk: a.dev, Checker: a.checker}))
	if err != kbase.EOK {
		return err
	}
	inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
	if !ok {
		return kbase.EUCLEAN
	}
	a.inst = inst
	return kbase.EOK
}

// Apply implements spec.Impl.
func (a *SpecAdapter) Apply(op spec.Op) kbase.Errno {
	rec, err := recordOf(op)
	if err != kbase.EOK {
		return err
	}
	a.inst.nsLock.DownWrite(nil)
	defer a.inst.nsLock.UpWrite(nil)
	return a.inst.do(rec)
}

// Interpret implements spec.Impl: the abstraction function, reading
// the mounted state back out as the model.
func (a *SpecAdapter) Interpret() (Abs, kbase.Errno) {
	a.inst.nsLock.DownRead(nil)
	defer a.inst.nsLock.UpRead(nil)
	return interpretState(a.inst.st)
}

func interpretState(st *fstate) (Abs, kbase.Errno) {
	out := Abs{Dirs: map[string]bool{}, Files: map[string]string{}}
	for d := range st.dirs {
		out.Dirs[d] = true
	}
	var busy bool
	for f, cell := range st.files {
		ok := cell.Read(func(data []byte) { out.Files[f] = string(data) })
		if !ok {
			busy = true
		}
	}
	if busy {
		return Abs{}, kbase.EBUSY
	}
	return out, kbase.EOK
}

// Sync implements spec.CrashImpl.
func (a *SpecAdapter) Sync() kbase.Errno {
	a.inst.nsLock.DownWrite(nil)
	defer a.inst.nsLock.UpWrite(nil)
	return a.inst.store.sync()
}

// maxEnumeratedCrashSubsets bounds exhaustive subset enumeration;
// beyond it, subsets are sampled.
const maxEnumeratedCrashSubsets = 64

// ForEachCrash implements spec.CrashImpl: snapshot the device,
// enumerate (or sample) crash write-subsets, remount a throwaway
// instance for each, hand its interpretation to check, and restore.
func (a *SpecAdapter) ForEachCrash(check func(recovered Abs) bool) (int, kbase.Errno) {
	snap := a.dev.Snapshot()
	defer a.dev.Restore(snap)

	pending := snap.PendingCount()
	var subsets []map[int]bool
	if pending <= 6 {
		for mask := 0; mask < 1<<pending; mask++ {
			sub := make(map[int]bool)
			for b := 0; b < pending; b++ {
				if mask&(1<<b) != 0 {
					sub[b] = true
				}
			}
			subsets = append(subsets, sub)
		}
	} else {
		subsets = append(subsets, map[int]bool{}) // lose everything
		all := make(map[int]bool)
		for b := 0; b < pending; b++ {
			all[b] = true
		}
		subsets = append(subsets, all) // keep everything
		for len(subsets) < maxEnumeratedCrashSubsets {
			sub := make(map[int]bool)
			for b := 0; b < pending; b++ {
				if a.rng.Bool(0.5) {
					sub[b] = true
				}
			}
			subsets = append(subsets, sub)
		}
	}

	tried := 0
	for _, sub := range subsets {
		a.dev.Restore(snap)
		a.dev.CrashApplySubset(sub)
		// Remount a throwaway instance on the crashed image.
		ck := own.NewChecker(own.PolicyRecord)
		fs := &FS{SyncOnCommit: a.SyncOnCommit}
		sb, err := fs.Mount(nil, vfs.NewMountData(&MountData{Disk: a.dev, Checker: ck}))
		if err != kbase.EOK {
			return tried, err
		}
		inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
		if !ok {
			return tried, kbase.EUCLEAN
		}
		recovered, err := interpretState(inst.st)
		if err != kbase.EOK {
			return tried, err
		}
		tried++
		if !check(recovered) {
			return tried, kbase.EOK
		}
	}
	return tried, kbase.EOK
}
