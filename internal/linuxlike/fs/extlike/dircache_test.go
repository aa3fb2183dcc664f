package extlike

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
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

// checkDirCache fails unless the directory's cached entries equal a
// fresh decode of its blocks and list exactly want, in order.
func checkDirCache(t *testing.T, v *vfs.VFS, task *kbase.Task, inst *fsInstance, path string, want []string) {
	t.Helper()
	_, ei := dcDir(t, v, task, path)
	ei.lock.Lock(task)
	defer ei.lock.Unlock(task)
	if !ei.dirCached {
		t.Fatalf("%s: entries not cached after a successful op", path)
	}
	fromBlocks, err := inst.decodeDir(task, ei)
	if err != kbase.EOK {
		t.Fatalf("%s: decodeDir: %v", path, err)
	}
	if !slices.Equal(ei.dirents, fromBlocks) {
		t.Fatalf("%s: cache %v, blocks decode to %v", path, ei.dirents, fromBlocks)
	}
	got := make([]string, len(fromBlocks))
	for i, e := range fromBlocks {
		got[i] = e.Name
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: entries %v, model %v", path, got, want)
	}
}

// TestDirCacheMatchesBlocks runs a seeded mix of create, mkdir,
// unlink, rmdir and same- and cross-directory renames (some replacing
// an existing name) over two directories of several blocks each.
// After every op each directory's cached entries must equal a decode
// of its blocks and the model; the volume must fsck clean at the end.
// A writeDir refused mid-way by the journal (ENOSPC from
// GetWriteAccess) must drop the cache so the next lookup re-decodes.
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
		switch k := rng.Intn(20); {
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

	// Refuse a writeDir mid-way: the transaction is already at
	// capacity, so renaming the last entry skips the unchanged leading
	// blocks and is refused at the first block that would change,
	// before that block is modified.
	vi, ei := dcDir(t, v, task, "/a")
	ei.lock.Lock(task)
	before := ei.dirents
	last := before[len(before)-1]
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
	if err := inst.writeDir(task, h, vi, ei, withName(before, len(before)-1, renamed)); err != kbase.ENOSPC {
		t.Fatalf("writeDir into a full transaction: %v, want ENOSPC", err)
	}
	if ei.dirCached {
		t.Fatal("failed writeDir left the entry cache installed")
	}
	h.Stop()
	ei.lock.Unlock(task)
	if err := inst.commit(task); err != kbase.EOK {
		t.Fatalf("commit: %v", err)
	}
	ops := &inodeOps{inst: inst}
	if err := ops.LookupTyped(task, vi, renamed).Errno(); err != kbase.ENOENT {
		t.Fatalf("lookup of the refused name: %v, want ENOENT", err)
	}
	if err := ops.LookupTyped(task, vi, last.Name).Errno(); err != kbase.EOK {
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

// TestMultiBlockDirCrash: on a directory of several blocks, an
// appending create, an unlink of entry 0 (which shifts every block)
// and a same-dir rename to a longer name each survive a crash that
// loses every unflushed write: journal replay restores exactly the
// committed entry list, in order, and the volume fscks clean. The
// appending create must log exactly one directory block.
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

			logged := inst.jnl.Stats().BlocksLogged
			want := tc.op(t, v, task, names)
			logged = inst.jnl.Stats().BlocksLogged - logged
			if tc.name == "append-create" {
				// The new entry fits in the last block, so the other
				// logged blocks are the new inode's and the
				// directory's inode-table blocks and the inode bitmap.
				if int(st.Size)%dcBS+direntHeader+len("appended") > dcBS {
					t.Fatal("appended entry does not fit in the last block")
				}
				dirVi, _ := dcDir(t, v, task, "/d")
				child, _ := dcDir(t, v, task, "/d/appended")
				homes := map[uint64]bool{}
				for _, ino := range []uint64{dirVi.Ino, child.Ino} {
					blk, _ := inst.itabLocate(ino)
					homes[blk] = true
				}
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
