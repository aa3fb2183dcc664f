package extlike

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// White-box tests of the jbd2-style fsync: the device and journal
// traffic it issues, and the per-file set of dirty data blocks it
// writes.

// ioDelta is the device and journal activity between two snapshots.
type ioDelta struct {
	writes, flushes, commits, logged, checkpoints uint64
}

func ioSince(dev *blockdev.Device, inst *fsInstance, run func()) ioDelta {
	read := func() ioDelta {
		return ioDelta{
			writes:      ktrace.Read(dev.CollectMetrics, "writes"),
			flushes:     ktrace.Read(dev.CollectMetrics, "flushes"),
			commits:     ktrace.Read(inst.jnl.CollectMetrics, "commits"),
			logged:      ktrace.Read(inst.jnl.CollectMetrics, "blocks_logged"),
			checkpoints: ktrace.Read(inst.jnl.CollectMetrics, "checkpoints"),
		}
	}
	d0 := read()
	run()
	d1 := read()
	return ioDelta{
		writes:      d1.writes - d0.writes,
		flushes:     d1.flushes - d0.flushes,
		commits:     d1.commits - d0.commits,
		logged:      d1.logged - d0.logged,
		checkpoints: d1.checkpoints - d0.checkpoints,
	}
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*13 + seed
	}
	return b
}

// TestFsyncIOShape pins what pwrite+fsync costs on the device. An
// in-place overwrite of a preallocated file leaves the inode as it was,
// so nothing is journaled: fsync writes each dirty data block once and
// flushes once. An extending write changes the inode and commits
// exactly once, writing the log only; its fsync adds the data block and
// one flush.
func TestFsyncIOShape(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 1024, BlockSize: dcBS, Rng: kbase.NewRng(3)})
	v, task, inst := dcMount(t, dev, true)
	fd, err := v.Open(task, "/f", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	write := func(data []byte, off int64) {
		t.Helper()
		if n, err := v.Pwrite(task, fd, data, off); err != kbase.EOK || n != len(data) {
			t.Fatalf("Pwrite = (%d, %v)", n, err)
		}
		if err := v.Fsync(task, fd); err != kbase.EOK {
			t.Fatalf("Fsync: %v", err)
		}
	}
	write(fill(4*dcBS, 1), 0) // preallocate blocks 0-3

	got := ioSince(dev, inst, func() { write(fill(2*dcBS, 2), dcBS) })
	if want := (ioDelta{writes: 2, flushes: 1}); got != want {
		t.Errorf("in-place pwrite+fsync: %+v, want %+v", got, want)
	}

	got = ioSince(dev, inst, func() { write(fill(dcBS, 3), 4*dcBS) })
	if got.commits != 1 || got.checkpoints != 0 {
		t.Fatalf("extending pwrite+fsync: %d commits, %d checkpoints; want 1 and 0", got.commits, got.checkpoints)
	}
	// The commit writes descriptor, logged blocks and commit record, and
	// no home block (that waits for the checkpoint); fsync writes the
	// one new data block.
	if want := got.logged + 2 + 1; got.writes != want || got.flushes != 3 {
		t.Errorf("extending pwrite+fsync: %d writes, %d flushes; want %d and 3", got.writes, got.flushes, want)
	}
}

// TestFsyncSetFollowsBlocks checks the set itself: every dirtied data
// block is listed once, a freed block leaves it, a block reused by
// another file joins that file's set, fsync drains it, and directories
// keep none.
func TestFsyncSetFollowsBlocks(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 1024, BlockSize: dcBS, Rng: kbase.NewRng(4)})
	v, task, _ := dcMount(t, dev, true)
	fa, err := v.Open(task, "/a", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open(/a): %v", err)
	}
	for range 2 { // the second write dirties the same blocks again
		if _, err := v.Pwrite(task, fa, fill(3*dcBS, 1), 0); err != kbase.EOK {
			t.Fatalf("Pwrite(/a): %v", err)
		}
	}
	_, ea := dcDir(t, v, task, "/a")
	if want := ea.di.Direct[:3]; !slices.Equal(ea.dirtyData, want) {
		t.Fatalf("a's set = %v, want its blocks %v", ea.dirtyData, want)
	}
	freed := ea.di.Direct[2]
	if err := v.Truncate(task, "/a", 2*dcBS); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	if slices.Contains(ea.dirtyData, freed) {
		t.Fatalf("a's set %v still lists freed block %d", ea.dirtyData, freed)
	}
	fb, err := v.Open(task, "/b", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open(/b): %v", err)
	}
	if _, err := v.Pwrite(task, fb, fill(dcBS, 2), 0); err != kbase.EOK {
		t.Fatalf("Pwrite(/b): %v", err)
	}
	_, eb := dcDir(t, v, task, "/b")
	if eb.di.Direct[0] != freed || !slices.Equal(eb.dirtyData, []uint64{freed}) {
		t.Fatalf("b's block %d, set %v; want a's freed block %d in b's set", eb.di.Direct[0], eb.dirtyData, freed)
	}
	if err := v.Fsync(task, fa); err != kbase.EOK {
		t.Fatalf("Fsync(/a): %v", err)
	}
	if len(ea.dirtyData) != 0 || len(eb.dirtyData) != 1 {
		t.Fatalf("after fsync(a): a's set %v, b's set %v; want a drained, b untouched", ea.dirtyData, eb.dirtyData)
	}
	// The root directory allocated a block for the entries and the
	// unlink shrinks it, zeroing its tail; directory blocks are journaled
	// and never join a set.
	if err := v.Unlink(task, "/b"); err != kbase.EOK {
		t.Fatalf("Unlink(/b): %v", err)
	}
	if _, root := dcDir(t, v, task, "/"); root.di.Direct[0] == 0 || len(root.dirtyData) != 0 {
		t.Fatalf("root block %d, set %v; want a block and an empty set", root.di.Direct[0], root.dirtyData)
	}
}

// TestDirtyPressureWritesBack: with fsync per file and checkpoints only
// on a full log, in-place overwrites that nobody fsyncs would pin a
// bounded cache with dirty buffers until reads and writes fail with
// ENOBUFS. Past half full, a write writes everything back.
func TestDirtyPressureWritesBack(t *testing.T) {
	const cacheSize = 48
	dev := blockdev.New(blockdev.Config{Blocks: 1024, BlockSize: dcBS, Rng: kbase.NewRng(5)})
	if _, err := Mkfs(dev, MkfsOptions{}); err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&FS{}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&MountData{Dev: dev, CacheSize: cacheSize})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	root, _ := v.Resolve(task, "/")
	inst, _ := vfs.SBPrivateAs[*fsInstance](root.Sb)

	// 16 files × 4 blocks: more data than the cache holds.
	fds := make([]int, 16)
	for i := range fds {
		fd, err := v.Open(task, fmt.Sprintf("/f%02d", i), vfs.ORdWr|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open: %v", err)
		}
		if _, err := v.Pwrite(task, fd, fill(4*dcBS, byte(i)), 0); err != kbase.EOK {
			t.Fatalf("populate pwrite %d: %v", i, err)
		}
		fds[i] = fd
	}
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	for op := 0; op < 200; op++ {
		fd := fds[op%len(fds)]
		if _, err := v.Pwrite(task, fd, fill(2*dcBS, byte(op)), int64(op%3)*dcBS); err != kbase.EOK {
			t.Fatalf("in-place pwrite %d: %v", op, err)
		}
		if n := inst.cache.DirtyCount(); 2*n > cacheSize+4 {
			t.Fatalf("after pwrite %d: %d dirty buffers in a %d-buffer cache", op, n, cacheSize)
		}
	}
}

// TestDirtyPressureErrorSparesWrite: the writeback a write runs under
// dirty pressure is best effort. The write has already taken effect, so
// a writeback EIO must not be returned as the write's error.
func TestDirtyPressureErrorSparesWrite(t *testing.T) {
	const cacheSize = 48
	dev := blockdev.New(blockdev.Config{Blocks: 1024, BlockSize: dcBS, Rng: kbase.NewRng(5)})
	if _, err := Mkfs(dev, MkfsOptions{}); err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&FS{}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&MountData{Dev: dev, CacheSize: cacheSize})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	fds := make([]int, 16)
	for i := range fds {
		fd, err := v.Open(task, fmt.Sprintf("/f%02d", i), vfs.ORdWr|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open: %v", err)
		}
		if _, err := v.Pwrite(task, fd, fill(4*dcBS, byte(i)), 0); err != kbase.EOK {
			t.Fatalf("populate pwrite %d: %v", i, err)
		}
		fds[i] = fd
	}
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	dev.FailNextWrites(1)
	last := make([]byte, len(fds))
	for op := 0; op < 2*cacheSize; op++ {
		i := op % len(fds)
		if _, err := v.Pwrite(task, fds[i], fill(2*dcBS, byte(op)), 0); err != kbase.EOK {
			t.Fatalf("in-place pwrite %d: %v", op, err)
		}
		last[i] = byte(op)
	}
	// The pressure writeback spent the injected failure: a sync now
	// succeeds, and every file reads back its last write.
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll after the failed writeback: %v", err)
	}
	for i, fd := range fds {
		got := make([]byte, 2*dcBS)
		if _, err := v.Pread(task, fd, got, 0); err != kbase.EOK {
			t.Fatalf("pread %d: %v", i, err)
		}
		if !slices.Equal(got, fill(2*dcBS, last[i])) {
			t.Fatalf("file %d does not hold its last write", i)
		}
	}
}

// TestConcurrentFsyncs runs a pwrite/truncate/fsync loop per file on
// several tasks at once, so shrinking truncates free blocks that other
// files' extending writes take while fsyncs run. After a crash every
// file must hold exactly what its last fsync saw.
func TestConcurrentFsyncs(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	lockdepBefore := len(kbase.Validator().Reports())

	dev := blockdev.New(blockdev.Config{Blocks: 4096, BlockSize: dcBS, Rng: kbase.NewRng(6)})
	v, _, _ := dcMount(t, dev, true)
	const workers, rounds = 4, 40
	want := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			task := kbase.NewTask()
			path := fmt.Sprintf("/c%d", id)
			fd, err := v.Open(task, path, vfs.ORdWr|vfs.OCreate)
			if err != kbase.EOK {
				t.Errorf("open %s: %v", path, err)
				return
			}
			var model []byte
			for r := 0; r < rounds; r++ {
				switch r % 4 {
				case 0, 1: // may extend the file, leaving a hole
					data := fill(dcBS+r, byte(id*rounds+r))
					off := (r * 97) % (3 * dcBS)
					if _, err := v.Pwrite(task, fd, data, int64(off)); err != kbase.EOK {
						t.Errorf("pwrite %s: %v", path, err)
						return
					}
					if end := off + len(data); end > len(model) {
						model = append(model, make([]byte, end-len(model))...)
					}
					copy(model[off:], data)
				case 2:
					model = model[:len(model)/2]
					if err := v.Truncate(task, path, int64(len(model))); err != kbase.EOK {
						t.Errorf("truncate %s: %v", path, err)
						return
					}
				case 3:
					if err := v.Fsync(task, fd); err != kbase.EOK {
						t.Errorf("fsync %s: %v", path, err)
						return
					}
				}
			}
			want[id] = model
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := rec.Count(""); n != 0 {
		t.Fatalf("oopses: %v", rec.Events())
	}
	if reports := kbase.Validator().Reports(); len(reports) != lockdepBefore {
		t.Fatalf("lockdep reports: %v", reports[lockdepBefore:])
	}

	dev.CrashApplyNone()
	v2, task2, _ := dcMount(t, dev, false)
	for id, model := range want {
		path := fmt.Sprintf("/c%d", id)
		fd, err := v2.Open(task2, path, vfs.ORdOnly)
		if err != kbase.EOK {
			t.Fatalf("open %s after crash: %v", path, err)
		}
		got := make([]byte, len(model)+dcBS)
		n, err := v2.Pread(task2, fd, got, 0)
		if err != kbase.EOK || !slices.Equal(got[:n], model) {
			t.Fatalf("%s after crash: %d bytes (%v), want the %d bytes its last fsync saw", path, n, err, len(model))
		}
	}
	rep, err := Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("fsck after recovery: %v %+v", err, rep)
	}
}
