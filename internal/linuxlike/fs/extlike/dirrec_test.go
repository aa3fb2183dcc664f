package extlike

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// White-box tests of the ext2-style directory records: edits in place,
// slot reuse, trailing-block freeing, and what fsck and lookup make of
// a broken record chain.

// dirImages returns a copy of every block of directory ei, in file
// order, as the buffer cache holds them.
func dirImages(t *testing.T, inst *fsInstance, ei *einode) [][]byte {
	t.Helper()
	bs := uint64(inst.geo.SB.BlockSize)
	var out [][]byte
	var blk [1]uint64
	for fb := uint64(0); fb < ei.di.Size/bs; fb++ {
		if _, err := inst.mapRange(nil, nil, ei, fb, blk[:], false); err != kbase.EOK {
			t.Fatalf("mapRange(%d): %v", fb, err)
		}
		bh, err := inst.cache.Bread(blk[0])
		if err != kbase.EOK {
			t.Fatalf("Bread: %v", err)
		}
		out = append(out, slices.Clone(bh.Data))
		_ = bh.Put()
	}
	return out
}

// touchedBlocks counts the directory blocks an op edited or added:
// blocks present before and after whose bytes differ, plus blocks
// appended. Blocks a shrink freed are not edited.
func touchedBlocks(before, after [][]byte) int {
	n := max(0, len(after)-len(before))
	for i := range min(len(before), len(after)) {
		if !bytes.Equal(before[i], after[i]) {
			n++
		}
	}
	return n
}

// TestDirRecordsMatchModel drives seeded random creates, unlinks and
// renames (in place, to a longer name, and onto an existing name) with
// names of mixed lengths over one directory against a map. After every
// op the cached records equal a decode of the blocks and the live names
// equal the model; a create with a record slack enough for it reuses
// that slot and leaves the size alone, and one without grows the
// directory by one block; the last block always holds a live record;
// a create, an unlink and an in-place rename edit at most one directory
// block, any other rename at most two. Emptying the directory frees all
// of its blocks, and the volume fscks clean.
func TestDirRecordsMatchModel(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 2048, BlockSize: dcBS, Rng: kbase.NewRng(3)})
	v, task, inst := dcMount(t, dev, true)
	if err := v.Mkdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Mkdir: %v", err)
	}
	dirVi, ei := dcDir(t, v, task, "/d")
	rng := rand.New(rand.NewPCG(31, 7))
	model := map[string]bool{}
	serial := 0
	newName := func() string {
		serial++
		return fmt.Sprintf("%s%d", strings.Repeat("x", rng.IntN(60)), serial)
	}
	pick := func() string {
		names := make([]string, 0, len(model))
		for n := range model {
			names = append(names, n)
		}
		slices.Sort(names)
		return names[rng.IntN(len(names))]
	}
	names := func() []string {
		var out []string
		for n := range model {
			out = append(out, n)
		}
		return out
	}
	create := func(name string) kbase.Errno {
		fd, err := v.Open(task, "/d/"+name, vfs.OWrOnly|vfs.OCreate)
		if err == kbase.EOK {
			err = v.Close(fd)
		}
		return err
	}
	var reused, grown, shrunk int
	for op := 0; op < 3000; op++ {
		before := dirImages(t, inst, ei)
		size := ei.di.Size
		var desc string
		var err kbase.Errno
		limit := 1
		switch k := rng.IntN(10); {
		case k < 4 || len(model) < 3: // create
			name := newName()
			desc = "create " + name
			slot, _ := inst.dirSlot(ei, ei.dirents, name)
			if err = create(name); err == kbase.EOK {
				model[name] = true
				switch {
				case slot >= 0 && ei.di.Size != size:
					t.Fatalf("op %d (%s): a record had slack, yet the size went %d -> %d", op, desc, size, ei.di.Size)
				case slot >= 0:
					reused++
				case ei.di.Size != size+dcBS:
					t.Fatalf("op %d (%s): no record had slack, yet the size went %d -> %d", op, desc, size, ei.di.Size)
				default:
					grown++
				}
			}
		case k < 7: // unlink
			name := pick()
			desc = "unlink " + name
			if err = v.Unlink(task, "/d/"+name); err == kbase.EOK {
				delete(model, name)
				if ei.di.Size < size {
					shrunk++
				}
			}
		case k < 9: // rename to a fresh name, in place when it fits
			from, to := pick(), newName()
			desc = "rename " + from + " -> " + to
			i := dirFind(ei.dirents, from)
			if recSize(len(to)) > int(ei.dirents[i].recLen) {
				limit = 2
			}
			if err = v.Rename(task, "/d/"+from, "/d/"+to); err == kbase.EOK {
				delete(model, from)
				model[to] = true
			}
		default: // rename onto an existing name
			from, to := pick(), pick()
			if from == to {
				continue
			}
			desc = "rename " + from + " onto " + to
			limit = 2
			if err = v.Rename(task, "/d/"+from, "/d/"+to); err == kbase.EOK {
				delete(model, from)
			}
		}
		if err != kbase.EOK {
			t.Fatalf("op %d (%s): %v", op, desc, err)
		}
		if n := touchedBlocks(before, dirImages(t, inst, ei)); n > limit {
			t.Fatalf("op %d (%s) edited %d directory blocks, want at most %d", op, desc, n, limit)
		}
		if dirVi.ISize != int64(ei.di.Size) {
			t.Fatalf("op %d (%s): vfs size %d, disk size %d", op, desc, dirVi.ISize, ei.di.Size)
		}
		if ei.di.Size > 0 {
			j := len(ei.dirents)
			for j > 0 && uint64(ei.dirents[j-1].off) >= ei.di.Size-dcBS {
				j--
			}
			if !slices.ContainsFunc(ei.dirents[j:], live) {
				t.Fatalf("op %d (%s): the last block holds no live record", op, desc)
			}
		}
		checkDirCache(t, v, task, inst, "/d", names())
	}
	t.Logf("%d creates reused a slot, %d grew the directory, %d unlinks shrank it; %d entries at the end",
		reused, grown, shrunk, len(model))
	if reused == 0 || grown == 0 || shrunk == 0 {
		t.Fatalf("the op mix never reused a slot (%d), grew (%d) or shrank (%d) the directory", reused, grown, shrunk)
	}
	for name := range model {
		if err := v.Unlink(task, "/d/"+name); err != kbase.EOK {
			t.Fatalf("unlink %s: %v", name, err)
		}
	}
	if ei.di.Size != 0 || len(ei.dirents) != 0 {
		t.Fatalf("emptied directory keeps %d bytes, %d records", ei.di.Size, len(ei.dirents))
	}
	if err := v.Rmdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	if rep, err := Fsck(dev); err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
}

// TestCorruptRecLen: a rec_len that breaks the record chain is an fsck
// problem naming the directory, and a lookup in that directory fails
// with EUCLEAN without an oops. An unused record (ino 0) is no problem.
func TestCorruptRecLen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		recLen uint16
		want   string
	}{
		{"misaligned", uint16(recSize(1) + 1), "bad rec_len"},
		{"too-short", direntHeader - dirAlign, "bad rec_len"},
		{"crosses-block", uint16(dcBS - recSize(1) + dirAlign), "crosses the block end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: dcBS, Rng: kbase.NewRng(4)})
			v, task, _ := dcMount(t, dev, true)
			if err := v.Mkdir(task, "/d"); err != kbase.EOK {
				t.Fatalf("Mkdir: %v", err)
			}
			for _, n := range []string{"a", "b", "c"} {
				fd, err := v.Open(task, "/d/"+n, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					t.Fatalf("create %s: %v", n, err)
				}
				v.Close(fd)
			}
			if err := v.Unlink(task, "/d/a"); err != kbase.EOK { // leaves an unused first record
				t.Fatalf("Unlink: %v", err)
			}
			_, ei := dcDir(t, v, task, "/d")
			blk := ei.di.Direct[0]
			if err := v.Unmount(task, "/"); err != kbase.EOK {
				t.Fatalf("Unmount: %v", err)
			}
			if rep, err := Fsck(dev); err != kbase.EOK || !rep.Clean() {
				t.Fatalf("precondition: fsck (%v):\n%s", err, rep.Summary())
			}

			// The second record ("b") starts right after the unused
			// first one.
			buf := make([]byte, dcBS)
			if err := dev.Read(blk, buf); err != kbase.EOK {
				t.Fatalf("Read: %v", err)
			}
			second := binary.LittleEndian.Uint16(buf[8:])
			binary.LittleEndian.PutUint16(buf[second+8:], tc.recLen)
			if err := dev.Write(blk, buf); err != kbase.EOK || dev.Flush() != kbase.EOK {
				t.Fatal("writing the corrupt block failed")
			}

			rep, err := Fsck(dev)
			if err != kbase.EOK {
				t.Fatalf("Fsck: %v", err)
			}
			if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, tc.want) }) {
				t.Fatalf("fsck problems %v, want one containing %q", rep.Problems, tc.want)
			}

			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			v2, task2, _ := dcMount(t, dev, false)
			if _, err := v2.Stat(task2, "/d/b"); err != kbase.EUCLEAN {
				t.Fatalf("lookup in the corrupt directory: %v, want EUCLEAN", err)
			}
			if evs := rec.Events(); len(evs) != 0 {
				t.Fatalf("lookup oopsed: %v", evs)
			}
		})
	}
}

// TestDirEditAllocatesNoImage: a create and an unlink in a cached
// directory of many blocks allocate no more objects and no more bytes
// than in a directory of one entry. Rewriting the directory would
// allocate an image the size of the directory on every op.
func TestDirEditAllocatesNoImage(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 4096, BlockSize: dcBS, Rng: kbase.NewRng(5)})
	v, task, _ := dcMount(t, dev, true)
	for _, d := range []string{"/small", "/big"} {
		if err := v.Mkdir(task, d); err != kbase.EOK {
			t.Fatalf("Mkdir: %v", err)
		}
	}
	for i := 0; i < 300; i++ {
		fd, err := v.Open(task, fmt.Sprintf("/big/entry-%04d", i), vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("create: %v", err)
		}
		v.Close(fd)
	}
	if st, _ := v.Stat(task, "/big"); st.Size < 8*dcBS {
		t.Fatalf("/big is %d bytes, want at least 8 blocks", st.Size)
	}
	churn := func(dir string) func() {
		return func() {
			fd, err := v.Open(task, dir+"/churn", vfs.OWrOnly|vfs.OCreate)
			if err != kbase.EOK {
				t.Fatalf("create: %v", err)
			}
			v.Close(fd)
			if err := v.Unlink(task, dir+"/churn"); err != kbase.EOK {
				t.Fatalf("unlink: %v", err)
			}
		}
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 50
		f()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	small, big := testing.AllocsPerRun(50, churn("/small")), testing.AllocsPerRun(50, churn("/big"))
	if big > small {
		t.Errorf("create+unlink allocates %v objects in a big directory, %v in a small one", big, small)
	}
	smallB, bigB := bytesPerRun(churn("/small")), bytesPerRun(churn("/big"))
	if bigB >= smallB+dcBS {
		t.Errorf("create+unlink allocates %d bytes in a big directory, %d in a small one: a directory image", bigB, smallB)
	}
}

// TestEmptiedDirectoryRemovable: a directory of more blocks than one
// transaction can revoke, emptied front to back (readdir order, as
// rm -r does), frees every block by its last unlink, and rmdir then
// succeeds. An empty directory that still holds such blocks, as a crash
// between an unlink's commit and its trims leaves one, is also removed.
// Both volumes fsck clean with no block left reachable.
func TestEmptiedDirectoryRemovable(t *testing.T) {
	const minBlocks = 64
	t.Run("unlink-in-readdir-order", func(t *testing.T) {
		dev := blockdev.New(blockdev.Config{Blocks: 8192, BlockSize: dcBS, Rng: kbase.NewRng(6)})
		v, task, inst := dcMount(t, dev, true)
		if err := v.Mkdir(task, "/d"); err != kbase.EOK {
			t.Fatalf("Mkdir: %v", err)
		}
		for i := 0; ; i++ {
			if st, _ := v.Stat(task, "/d"); st.Size >= minBlocks*dcBS {
				break
			}
			fd, err := v.Open(task, fmt.Sprintf("/d/entry-%04d", i), vfs.OWrOnly|vfs.OCreate)
			if err != kbase.EOK {
				t.Fatalf("create: %v", err)
			}
			v.Close(fd)
		}
		if minBlocks <= inst.jnl.TxCapacity() {
			t.Fatalf("directory of %d blocks fits one transaction (%d)", minBlocks, inst.jnl.TxCapacity())
		}
		ents, err := v.ReadDir(task, "/d")
		if err != kbase.EOK {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range ents {
			if err := v.Unlink(task, "/d/"+e.Name); err != kbase.EOK {
				t.Fatalf("Unlink(%s): %v", e.Name, err)
			}
		}
		if _, ei := dcDir(t, v, task, "/d"); ei.di.Size != 0 {
			t.Fatalf("emptied directory keeps %d bytes", ei.di.Size)
		}
		rmdirAndFsck(t, v, task, dev)
	})
	t.Run("leftover-empty-blocks", func(t *testing.T) {
		dev := blockdev.New(blockdev.Config{Blocks: 2048, BlockSize: dcBS, Rng: kbase.NewRng(7)})
		v, task, inst := dcMount(t, dev, true)
		if err := v.Mkdir(task, "/d"); err != kbase.EOK {
			t.Fatalf("Mkdir: %v", err)
		}
		dirVi, ei := dcDir(t, v, task, "/d")
		// Append blocks holding one unused record each, a few per
		// transaction.
		ei.lock.Lock(task)
		for n := 0; n < minBlocks; {
			h := inst.begin()
			for k := 0; k < 8 && n < minBlocks; k, n = k+1, n+1 {
				if err := inst.dirAppend(task, h, dirVi, ei, dirent{}); err != kbase.EOK {
					t.Fatalf("dirAppend: %v", err)
				}
			}
			h.Stop()
			if err := inst.commit(task); err != kbase.EOK {
				t.Fatalf("commit: %v", err)
			}
		}
		ei.lock.Unlock(task)
		if ei.di.Size != minBlocks*dcBS {
			t.Fatalf("directory is %d bytes, want %d blocks", ei.di.Size, minBlocks)
		}
		rmdirAndFsck(t, v, task, dev)
	})
}

// rmdirAndFsck removes the empty directory /d, unmounts, and checks
// that the volume fscks clean with no block reachable: the root is
// empty again.
func rmdirAndFsck(t *testing.T, v *vfs.VFS, task *kbase.Task, dev *blockdev.Device) {
	t.Helper()
	if err := v.Rmdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	rep, err := Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
	if rep.Blocks != 0 {
		t.Fatalf("%d blocks still reachable from an empty root", rep.Blocks)
	}
}
