package extlike

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// White-box tests of the decoded-directory cache and of changed-block
// directory writes. They reach into the einode, so they live in the
// package itself.

const dcBS = 512

// dcMount mounts dev, formatting it first when format is set, and
// returns the VFS, a task and the mounted instance.
func dcMount(t *testing.T, dev *blockdev.Device, format bool) (*vfs.VFS, *kbase.Task, *fsInstance) {
	t.Helper()
	if format {
		if _, err := Mkfs(dev, MkfsOptions{}); err != kbase.EOK {
			t.Fatalf("Mkfs: %v", err)
		}
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&FS{}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&MountData{Dev: dev})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	root, err := v.Resolve(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve(/): %v", err)
	}
	inst, ok := vfs.SBPrivateAs[*fsInstance](root.Sb)
	if !ok {
		t.Fatal("root superblock is not extlike")
	}
	return v, task, inst
}

func dcDir(t *testing.T, v *vfs.VFS, task *kbase.Task, path string) (*vfs.Inode, *einode) {
	t.Helper()
	vi, err := v.Resolve(task, path)
	if err != kbase.EOK {
		t.Fatalf("Resolve(%s): %v", path, err)
	}
	ei, err := einodeOf(vi)
	if err != kbase.EOK {
		t.Fatalf("einodeOf(%s): %v", path, err)
	}
	return vi, ei
}

// dirModel is the expected entry list of one directory, in on-disk
// order, with the directory entries marked.
type dirModel struct {
	names []string
	isDir map[string]bool
}

func (m *dirModel) add(name string, dir bool) {
	m.names = append(m.names, name)
	m.isDir[name] = dir
}

func (m *dirModel) remove(name string) {
	m.names = slices.DeleteFunc(m.names, func(n string) bool { return n == name })
	delete(m.isDir, name)
}

// pick returns a random entry of the wanted kind, or "" if none.
func (m *dirModel) pick(rng *kbase.Rng, dir bool) string {
	var of []string
	for _, n := range m.names {
		if m.isDir[n] == dir {
			of = append(of, n)
		}
	}
	if len(of) == 0 {
		return ""
	}
	return of[rng.Intn(len(of))]
}

// checkDirCache fails unless the directory's cached records equal a
// fresh decode of its blocks, offsets and unused records included, and
// its live entries are exactly want. POSIX leaves readdir order
// unspecified, so the names compare as sets.
func checkDirCache(t *testing.T, v *vfs.VFS, task *kbase.Task, inst *fsInstance, path string, want []string) {
	t.Helper()
	_, ei := dcDir(t, v, task, path)
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	if !ei.dirCached {
		t.Fatalf("%s: entries not cached after a successful op", path)
	}
	fromBlocks, problem, err := inst.decodeDir(task, ei)
	if err != kbase.EOK {
		t.Fatalf("%s: decodeDir: %v %s", path, err, problem)
	}
	if !slices.Equal(ei.dirents, fromBlocks) {
		t.Fatalf("%s: cache %v, blocks decode to %v", path, ei.dirents, fromBlocks)
	}
	var got []string
	for _, e := range fromBlocks {
		if e.Ino != 0 {
			got = append(got, e.Name)
		}
	}
	slices.Sort(got)
	want = slices.Clone(want)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: entries %v, model %v", path, got, want)
	}
}

// TestDirCacheMatchesBlocks runs a seeded mix of create, mkdir,
// unlink, rmdir and same- and cross-directory renames (some replacing
// an existing name), plus ops the namespace rules refuse, over two
// directories of several blocks each. After every op each directory's
// cached records must equal a decode of its blocks, and its entries the
// model's; the volume must fsck clean at the end. A record edit the
// journal refuses (ENOSPC from GetWriteAccess) must leave both the
// block and the cache as they were.
func TestDirCacheMatchesBlocks(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 4096, BlockSize: dcBS, Rng: kbase.NewRng(5)})
	v, task, inst := dcMount(t, dev, true)
	rng := kbase.NewRng(77)
	dirs := []string{"/a", "/b"}
	model := map[string]*dirModel{}
	serial := 0
	newName := func() string {
		serial++
		return fmt.Sprintf("%s%d", strings.Repeat("n", 1+rng.Intn(24)), serial)
	}
	for _, d := range dirs {
		if err := v.Mkdir(task, d); err != kbase.EOK {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
		model[d] = &dirModel{isDir: map[string]bool{}}
		for i := 0; i < 140; i++ {
			name := newName()
			var err kbase.Errno
			if i%10 == 0 {
				err = v.Mkdir(task, d+"/"+name)
			} else {
				var fd int
				if fd, err = v.Open(task, d+"/"+name, vfs.OWrOnly|vfs.OCreate); err == kbase.EOK {
					err = v.Close(fd)
				}
			}
			if err != kbase.EOK {
				t.Fatalf("populate %s/%s: %v", d, name, err)
			}
			model[d].add(name, i%10 == 0)
		}
		if st, err := v.Stat(task, d); err != kbase.EOK || st.Size < 5*dcBS {
			t.Fatalf("%s: size %d (%v), want at least 5 blocks", d, st.Size, err)
		}
	}

	for op := 0; op < 400; op++ {
		d := dirs[rng.Intn(2)]
		other := dirs[0]
		if d == other {
			other = dirs[1]
		}
		m := model[d]
		var desc string
		var err kbase.Errno
		switch k := rng.Intn(23); {
		case k >= 20: // refused: a file renamed onto a directory, or an existing name made again
			from, onto := m.pick(rng, false), model[other].pick(rng, true)
			if from == "" || onto == "" {
				continue
			}
			var want kbase.Errno
			switch k {
			case 20:
				desc, want = "rename "+d+"/"+from+" -> "+other+"/"+onto+" (a directory)", kbase.EISDIR
				err = v.Rename(task, d+"/"+from, other+"/"+onto)
			case 21:
				desc, want = "rename "+other+"/"+onto+" -> "+d+"/"+from+" (a file)", kbase.ENOTDIR
				err = v.Rename(task, other+"/"+onto, d+"/"+from)
			default:
				desc, want = "mkdir "+d+"/"+from+" (exists)", kbase.EEXIST
				err = v.Mkdir(task, d+"/"+from)
			}
			if err != want {
				t.Fatalf("op %d (%s): %v, want %v", op, desc, err, want)
			}
			err = kbase.EOK
		case k < 4: // create
			name := newName()
			desc = "create " + d + "/" + name
			var fd int
			if fd, err = v.Open(task, d+"/"+name, vfs.OWrOnly|vfs.OCreate); err == kbase.EOK {
				err = v.Close(fd)
				m.add(name, false)
			}
		case k < 5: // mkdir
			name := newName()
			desc = "mkdir " + d + "/" + name
			if err = v.Mkdir(task, d+"/"+name); err == kbase.EOK {
				m.add(name, true)
			}
		case k < 9: // unlink
			name := m.pick(rng, false)
			if name == "" {
				continue
			}
			desc = "unlink " + d + "/" + name
			if err = v.Unlink(task, d+"/"+name); err == kbase.EOK {
				m.remove(name)
			}
		case k < 10: // rmdir
			name := m.pick(rng, true)
			if name == "" {
				continue
			}
			desc = "rmdir " + d + "/" + name
			if err = v.Rmdir(task, d+"/"+name); err == kbase.EOK {
				m.remove(name)
			}
		case k < 15: // same-dir rename, sometimes onto an existing file
			from := m.pick(rng, false)
			if from == "" {
				continue
			}
			to := newName()
			if rng.Bool(0.3) {
				if x := m.pick(rng, false); x != "" && x != from {
					to = x
				}
			}
			desc = "rename " + d + "/" + from + " -> " + to
			if err = v.Rename(task, d+"/"+from, d+"/"+to); err == kbase.EOK {
				if slices.Contains(m.names, to) {
					m.remove(to)
				}
				m.names[slices.Index(m.names, from)] = to
				delete(m.isDir, from)
				m.isDir[to] = false
			}
		default: // cross-dir rename, sometimes onto an existing file
			dir := rng.Bool(0.2)
			from := m.pick(rng, dir)
			if from == "" {
				continue
			}
			to := newName()
			if !dir && rng.Bool(0.3) {
				if x := model[other].pick(rng, false); x != "" {
					to = x
				}
			}
			desc = "rename " + d + "/" + from + " -> " + other + "/" + to
			if err = v.Rename(task, d+"/"+from, other+"/"+to); err == kbase.EOK {
				m.remove(from)
				model[other].remove(to)
				model[other].add(to, dir)
			}
		}
		if err != kbase.EOK {
			t.Fatalf("op %d (%s): %v", op, desc, err)
		}
		for _, dd := range dirs {
			checkDirCache(t, v, task, inst, dd, model[dd].names)
		}
	}

	// Refuse a record edit: the transaction is already at capacity, so
	// renaming the last entry in place is refused when its block would
	// join, before the block or the cache changes.
	vi, ei := dcDir(t, v, task, "/a")
	ei.lock.Lock(task)
	before := slices.Clone(ei.dirents)
	li := len(before) - 1
	for before[li].Ino == 0 {
		li--
	}
	last := before[li]
	renamed := strings.Repeat("r", len(last.Name))
	h := inst.begin()
	for i := 0; i < inst.jnl.TxCapacity(); i++ {
		bh, err := inst.cache.Bread(inst.geo.SB.ITabStart + uint64(i))
		if err != kbase.EOK {
			t.Fatalf("Bread: %v", err)
		}
		if err := h.GetWriteAccess(bh.Meta()); err != kbase.EOK {
			t.Fatalf("GetWriteAccess filling the transaction: %v", err)
		}
		_ = bh.Put()
	}
	if err := inst.dirSet(task, h, ei, li, renamed, last.Ino, last.Mode); err != kbase.ENOSPC {
		t.Fatalf("record edit in a full transaction: %v, want ENOSPC", err)
	}
	if !ei.dirCached || !slices.Equal(ei.dirents, before) {
		t.Fatal("refused record edit changed the entry cache")
	}
	h.Stop()
	ei.lock.Unlock(task)
	if err := inst.commit(task); err != kbase.EOK {
		t.Fatalf("commit: %v", err)
	}
	ops := &inodeOps{inst: inst}
	if _, err := ops.LookupTyped(task, vi, renamed).Get(); err != kbase.ENOENT {
		t.Fatalf("lookup of the refused name: %v, want ENOENT", err)
	}
	if _, err := ops.LookupTyped(task, vi, last.Name).Get(); err != kbase.EOK {
		t.Fatalf("lookup of the kept name: %v", err)
	}
	checkDirCache(t, v, task, inst, "/a", model["/a"].names)

	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	rep, err := Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
}

// TestMultiBlockDirCrash: on a directory of several blocks, a create
// into the last block's slack, an unlink of the first entry (its record
// becomes unused) and a same-dir rename to a longer name (a new record
// and a merged old one) each survive a crash that loses every unflushed
// write: journal replay restores exactly the committed entry set and
// the volume fscks clean. The create must log exactly one directory
// block and leave the directory inode, whose size does not change,
// out of the log.
func TestMultiBlockDirCrash(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, v *vfs.VFS, task *kbase.Task, names []string) []string
	}{
		{"append-create", func(t *testing.T, v *vfs.VFS, task *kbase.Task, names []string) []string {
			fd, err := v.Open(task, "/d/appended", vfs.OWrOnly|vfs.OCreate)
			if err != kbase.EOK {
				t.Fatalf("create: %v", err)
			}
			v.Close(fd)
			return append(names, "appended")
		}},
		{"unlink-first", func(t *testing.T, v *vfs.VFS, task *kbase.Task, names []string) []string {
			if err := v.Unlink(task, "/d/"+names[0]); err != kbase.EOK {
				t.Fatalf("unlink: %v", err)
			}
			return names[1:]
		}},
		{"rename-longer", func(t *testing.T, v *vfs.VFS, task *kbase.Task, names []string) []string {
			longer := names[3] + "-with-a-longer-name"
			if err := v.Rename(task, "/d/"+names[3], "/d/"+longer); err != kbase.EOK {
				t.Fatalf("rename: %v", err)
			}
			out := slices.Clone(names)
			out[3] = longer
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.New(blockdev.Config{Blocks: 2048, BlockSize: dcBS, Rng: kbase.NewRng(9)})
			v, task, inst := dcMount(t, dev, true)
			if err := v.Mkdir(task, "/d"); err != kbase.EOK {
				t.Fatalf("Mkdir: %v", err)
			}
			var names []string
			for i := 0; i < 170; i++ {
				name := fmt.Sprintf("e%03d", i)
				fd, err := v.Open(task, "/d/"+name, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					t.Fatalf("create %s: %v", name, err)
				}
				v.Close(fd)
				names = append(names, name)
			}
			st, err := v.Stat(task, "/d")
			if err != kbase.EOK || st.Size < 5*dcBS {
				t.Fatalf("/d size %d (%v), want at least 5 blocks", st.Size, err)
			}
			if err := v.SyncAll(task); err != kbase.EOK {
				t.Fatalf("SyncAll: %v", err)
			}

			logged := ktrace.Read(inst.jnl.CollectMetrics, "blocks_logged")
			want := tc.op(t, v, task, names)
			logged = ktrace.Read(inst.jnl.CollectMetrics, "blocks_logged") - logged
			if tc.name == "append-create" {
				// The new entry fits in the last block's slack, so the
				// other logged blocks are the new inode's inode-table
				// block and the inode bitmap.
				dirVi, dei := dcDir(t, v, task, "/d")
				if tail := dei.dirents[len(dei.dirents)-1]; tail.Name != "appended" || int64(tail.off) < st.Size-dcBS {
					t.Fatalf("appended record %+v is not in the last block", tail)
				}
				if got, _ := v.Stat(task, "/d"); got.Size != st.Size || dirVi.ISize != st.Size {
					t.Fatalf("directory size %d after a create into slack, want %d", got.Size, st.Size)
				}
				child, _ := dcDir(t, v, task, "/d/appended")
				homes := map[uint64]bool{}
				blk, _ := inst.itabLocate(child.Ino)
				homes[blk] = true
				homes[inst.geo.SB.IBMStart+(child.Ino-1)/(dcBS*8)] = true
				if wantLogged := uint64(len(homes)) + 1; logged != wantLogged {
					t.Fatalf("appending create logged %d blocks, want %d (one directory block)", logged, wantLogged)
				}
			}

			dev.CrashApplyNone()
			v2, task2, inst2 := dcMount(t, dev, false)
			if _, err := v2.ReadDir(task2, "/d"); err != kbase.EOK {
				t.Fatalf("ReadDir after crash: %v", err)
			}
			checkDirCache(t, v2, task2, inst2, "/d", want)
			if err := v2.Unmount(task2, "/"); err != kbase.EOK {
				t.Fatalf("Unmount: %v", err)
			}
			rep, err := Fsck(dev)
			if err != kbase.EOK || !rep.Clean() {
				t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
			}
		})
	}
}
