package extlike_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// TestRangeMapperMatchesModel drives seeded random preads, pwrites and
// truncates over one sparse file against a byte-slice model. Offsets
// and lengths fall anywhere, so ranges start and end inside blocks,
// cross the direct/indirect edge, leave holes that must read as zeros,
// read past EOF and run into EFBIG at the largest file. Every read
// must take the indirect block from the cache at most once, and the
// volume must fsck clean at the end.
func TestRangeMapperMatchesModel(t *testing.T) {
	dev := newDevice(t, 1024)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	root, err := v.Resolve(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		t.Fatal("root is not extlike")
	}
	gets := func() uint64 {
		return ktrace.Read(inst.Cache().CollectMetrics, "hits") + ktrace.Read(inst.Cache().CollectMetrics, "misses")
	}
	const maxSize = (10 + testBS/8) * testBS
	fd, err := v.Open(task, "/sparse", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	defer v.Close(fd)

	var model []byte
	rng := rand.New(rand.NewPCG(23, 5))
	// randRange picks an offset and length biased towards the edges
	// that matter: block boundaries, the direct/indirect edge, EOF and
	// the largest file.
	randRange := func() (int, int) {
		var off int
		switch rng.IntN(4) {
		case 0:
			off = 10*testBS + rng.IntN(2*testBS) - testBS
		case 1:
			off = len(model) + rng.IntN(2*testBS) - testBS/2
		case 2:
			off = maxSize - rng.IntN(3*testBS)
		default:
			off = rng.IntN(maxSize)
		}
		off = max(0, off)
		return off, rng.IntN(5 * testBS)
	}
	check := func(step int, off, n int) {
		t.Helper()
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 0xEE
		}
		before := gets()
		got, err := v.Pread(task, fd, buf, int64(off))
		want := 0
		if off < len(model) {
			want = min(n, len(model)-off)
		}
		if err != kbase.EOK || got != want {
			t.Fatalf("step %d: Pread(%d, %d) = %d, %v; want %d", step, off, n, got, err, want)
		}
		if !bytes.Equal(buf[:got], model[off:off+got]) {
			t.Fatalf("step %d: Pread(%d, %d) bytes differ from the model", step, off, n)
		}
		if spanned := uint64((off+got+testBS-1)/testBS - off/testBS); got > 0 && gets()-before > spanned+1 {
			t.Fatalf("step %d: Pread over %d blocks took %d buffers, want at most one per block plus the indirect block",
				step, spanned, gets()-before)
		}
	}

	truncate := func(step, size int) {
		t.Helper()
		if err := v.Truncate(task, "/sparse", int64(size)); err != kbase.EOK {
			t.Fatalf("step %d: Truncate(%d): %v", step, size, err)
		}
		if size < len(model) {
			model = model[:size]
		} else {
			model = append(model, make([]byte, size-len(model))...)
		}
	}

	// An extended, never-written file: every block is a hole, and the
	// indirect range has no indirect block at all.
	truncate(-1, 30*testBS+77)
	check(-1, 9*testBS+300, 3*testBS)

	for step := range 600 {
		switch r := rng.IntN(10); {
		case r < 4:
			off, n := randRange()
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint32()) | 1 // never zero, so a hole shows
			}
			got, err := v.Pwrite(task, fd, data, int64(off))
			if off+n > maxSize {
				if err != kbase.EFBIG || got != 0 {
					t.Fatalf("step %d: Pwrite(%d, %d) past the largest file = %d, %v; want EFBIG", step, off, n, got, err)
				}
				continue
			}
			if err != kbase.EOK || got != n {
				t.Fatalf("step %d: Pwrite(%d, %d) = %d, %v", step, off, n, got, err)
			}
			if end := off + n; end > len(model) {
				model = append(model, make([]byte, end-len(model))...)
			}
			copy(model[off:], data)
		case r < 8:
			off, n := randRange()
			check(step, off, n)
		case r < 9:
			// Mostly inside the indirect range, sometimes below it.
			size := 10*testBS + rng.IntN(maxSize-10*testBS)
			if rng.IntN(4) == 0 {
				size = rng.IntN(12 * testBS)
			}
			truncate(step, size)
			if rng.IntN(2) == 0 {
				// Grow back over the cut: what lay past it reads as zeros.
				truncate(step, min(maxSize, size+1+rng.IntN(2*testBS)))
				check(step, max(0, size-testBS/2), 2*testBS)
			}
		default:
			if err := v.Fsync(task, fd); err != kbase.EOK {
				t.Fatalf("step %d: Fsync: %v", step, err)
			}
		}
	}
	check(600, 0, len(model)+testBS)
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	rep, err := extlike.Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
}

// TestShortWriteAtENOSPC fills the volume, frees three blocks and
// writes six blocks' worth: the write stops at ENOSPC after the blocks
// it could map, returns that short count, and those bytes read back.
// Into a sparse file the rest stays a hole; past EOF of an empty file
// the size covers exactly the bytes returned. The blocks it did map
// must stay reachable: fsck finds no leak.
func TestShortWriteAtENOSPC(t *testing.T) {
	t.Run("hole", func(t *testing.T) {
		dev, v, task := volumeWithThreeFreeBlocks(t)
		fd, err := v.Open(task, "/sparse", vfs.ORdWr|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open: %v", err)
		}
		defer v.Close(fd)
		if err := v.Truncate(task, "/sparse", 20*testBS); err != kbase.EOK {
			t.Fatalf("Truncate: %v", err)
		}
		data := patterned(6*testBS, 9)
		n, err := v.Pwrite(task, fd, data, 100) // file blocks 0..6
		if want := 3*testBS - 100; err != kbase.ENOSPC || n != want {
			t.Fatalf("Pwrite over 7 blocks with 3 free = %d, %v; want %d, ENOSPC", n, err, want)
		}
		want := make([]byte, 20*testBS)
		copy(want[100:], data[:n])
		checkShortWrite(t, dev, v, task, "/sparse", fd, want)
	})
	t.Run("past EOF", func(t *testing.T) {
		dev, v, task := volumeWithThreeFreeBlocks(t)
		fd, err := v.Open(task, "/empty", vfs.ORdWr|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open: %v", err)
		}
		defer v.Close(fd)
		data := patterned(6*testBS, 5)
		n, err := v.Write(task, fd, data)
		if err != kbase.ENOSPC || n != 3*testBS {
			t.Fatalf("Write of 6 blocks with 3 free = %d, %v; want %d, ENOSPC", n, err, 3*testBS)
		}
		checkShortWrite(t, dev, v, task, "/empty", fd, data[:n])
	})
}

// volumeWithThreeFreeBlocks fills a fresh volume with 8-block files,
// one block per write, until ENOSPC, then truncates the first to five
// blocks: three blocks are free.
func volumeWithThreeFreeBlocks(t *testing.T) (*blockdev.Device, *vfs.VFS, *kbase.Task) {
	t.Helper()
	dev := newDevice(t, 256)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	full := false
	for i := 0; !full; i++ {
		path := "/fill" + string(rune('a'+i))
		ffd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate|vfs.OAppend)
		if err != kbase.EOK {
			t.Fatalf("Open(%s): %v", path, err)
		}
		for b := 0; b < 8 && !full; b++ {
			if _, err := v.Write(task, ffd, patterned(testBS, byte(b))); err == kbase.ENOSPC {
				full = true
			} else if err != kbase.EOK {
				t.Fatalf("Write(%s): %v", path, err)
			}
		}
		v.Close(ffd)
	}
	if err := v.Truncate(task, "/filla", 5*testBS); err != kbase.EOK {
		t.Fatalf("Truncate(/filla): %v", err)
	}
	return dev, v, task
}

// checkShortWrite requires path's size to be len(want), its bytes
// (read through fd) to be want, and the volume to fsck clean after a
// sync.
func checkShortWrite(t *testing.T, dev *blockdev.Device, v *vfs.VFS, task *kbase.Task, path string, fd int, want []byte) {
	t.Helper()
	st, err := v.Stat(task, path)
	if err != kbase.EOK || st.Size != int64(len(want)) {
		t.Fatalf("Stat = size %d, %v; want %d", st.Size, err, len(want))
	}
	got := make([]byte, len(want))
	if m, err := v.Pread(task, fd, got, 0); err != kbase.EOK || m != len(got) {
		t.Fatalf("Pread = %d, %v", m, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("after the short write the file is not the bytes it returned")
	}
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	rep, err := extlike.Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
}
