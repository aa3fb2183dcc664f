package extlike_test

import (
	"bytes"
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// crashAndRemount simulates power loss (no cached writes survive) and
// mounts a fresh instance, which runs journal recovery.
func crashAndRemount(t *testing.T, dev *blockdev.Device, fs *extlike.FS) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	dev.CrashApplyNone()
	return mount(t, dev, fs)
}

// TestMetadataSurvivesCrash: every namespace operation commits its
// transaction, so after a crash the journal replays it even though
// the home locations were never flushed.
func TestMetadataSurvivesCrash(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	v.Mkdir(task, "/dir")
	writeFile(t, v, task, "/dir/f", []byte("hello"))

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	st, err := v2.Stat(task2, "/dir/f")
	if err != kbase.EOK {
		t.Fatalf("file missing after crash+recovery: %v", err)
	}
	if st.Size != 5 {
		t.Fatalf("size after recovery = %d", st.Size)
	}
}

// TestDataRequiresFsync documents writeback semantics: file data that
// was never fsynced may be lost even when the metadata survived.
func TestDataRequiresFsync(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})

	// File 1: fsynced — data must survive.
	fd, _ := v.Open(task, "/synced", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("durable"))
	if err := v.Fsync(task, fd); err != kbase.EOK {
		t.Fatalf("Fsync: %v", err)
	}
	v.Close(fd)

	// File 2: not fsynced — metadata (size) survives via the journal,
	// data blocks may be stale.
	writeFile(t, v, task, "/unsynced", []byte("volatile"))

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/synced"); string(got) != "durable" {
		t.Fatalf("fsynced data lost: %q", got)
	}
	st, err := v2.Stat(task2, "/unsynced")
	if err != kbase.EOK {
		t.Fatalf("unsynced file metadata lost: %v", err)
	}
	if st.Size != 8 {
		t.Fatalf("unsynced size = %d", st.Size)
	}
	// Its data is allowed to be anything (stale block content); the
	// read must simply not crash.
	fd2, _ := v2.Open(task2, "/unsynced", vfs.ORdOnly)
	buf := make([]byte, 8)
	if _, err := v2.Read(task2, fd2, buf); err != kbase.EOK {
		t.Fatalf("read of unsynced file: %v", err)
	}
	fsckClean(t, dev)
}

// cacheOf returns the buffer cache of the volume mounted at / in v.
func cacheOf(t *testing.T, v *vfs.VFS, task *kbase.Task) *bufcache.Cache {
	t.Helper()
	root, err := v.Resolve(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve(/): %v", err)
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		t.Fatal("root is not extlike")
	}
	return inst.Cache()
}

// openRW opens path read-write, creating it.
func openRW(t *testing.T, v *vfs.VFS, task *kbase.Task, path string) int {
	t.Helper()
	fd, err := v.Open(task, path, vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return fd
}

func pwrite(t *testing.T, v *vfs.VFS, task *kbase.Task, fd int, data []byte, off int64) {
	t.Helper()
	if n, err := v.Pwrite(task, fd, data, off); err != kbase.EOK || n != len(data) {
		t.Fatalf("Pwrite(%d bytes at %d) = (%d, %v)", len(data), off, n, err)
	}
}

func fsync(t *testing.T, v *vfs.VFS, task *kbase.Task, fd int) {
	t.Helper()
	if err := v.Fsync(task, fd); err != kbase.EOK {
		t.Fatalf("Fsync: %v", err)
	}
}

// fsckClean fails the test unless dev's volume checks clean.
func fsckClean(t *testing.T, dev *blockdev.Device) {
	t.Helper()
	rep, err := extlike.Fsck(dev)
	if err != kbase.EOK || !rep.Clean() {
		t.Fatalf("fsck after recovery: %v %+v", err, rep)
	}
}

// TestFsyncPersistsOnlyItsFile: fsync(a) writes a's dirty data and
// nothing else, so after a crash a's new data is there while b's
// dirty buffers — never written — leave b at its last synced content.
func TestFsyncPersistsOnlyItsFile(t *testing.T) {
	dev := newDevice(t, 1024)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	writeFile(t, v, task, "/a", patterned(2*testBS, 1))
	writeFile(t, v, task, "/b", patterned(2*testBS, 2))
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	fa, fb := openRW(t, v, task, "/a"), openRW(t, v, task, "/b")
	pwrite(t, v, task, fa, patterned(2*testBS, 3), 0)
	pwrite(t, v, task, fb, patterned(2*testBS, 4), 0)

	cache := cacheOf(t, v, task)
	writes := ktrace.Read(dev.CollectMetrics, "writes")
	fsync(t, v, task, fa)
	if got := ktrace.Read(dev.CollectMetrics, "writes") - writes; got != 2 {
		t.Fatalf("fsync(a) issued %d device writes, want a's 2 blocks", got)
	}
	if got := cache.DirtyCount(); got != 2 {
		t.Fatalf("%d dirty buffers after fsync(a), want b's 2", got)
	}

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/a"); !bytes.Equal(got, patterned(2*testBS, 3)) {
		t.Fatal("fsynced data of a lost")
	}
	if got := readFile(t, v2, task2, "/b"); !bytes.Equal(got, patterned(2*testBS, 2)) {
		t.Fatal("b is not at its synced content: its unsynced buffers reached the disk")
	}
	fsckClean(t, dev)
}

// TestFsyncAfterShrinkPersistsZeroedTail: a shrinking truncate zeroes
// the tail of the last kept block, and the next fsync must write that
// block even though no write touched it since the last fsync.
// Otherwise growing the file after a crash exposes the stale bytes.
func TestFsyncAfterShrinkPersistsZeroedTail(t *testing.T) {
	dev := newDevice(t, 1024)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	data := patterned(2*testBS, 5)
	fd := openRW(t, v, task, "/t")
	pwrite(t, v, task, fd, data, 0)
	fsync(t, v, task, fd)
	const keep = 300
	if err := v.Truncate(task, "/t", keep); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	fsync(t, v, task, fd)

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if err := v2.Truncate(task2, "/t", 2*testBS); err != kbase.EOK {
		t.Fatalf("Truncate (grow): %v", err)
	}
	got := readFile(t, v2, task2, "/t")
	if !bytes.Equal(got[:keep], data[:keep]) {
		t.Fatal("kept bytes lost")
	}
	if !bytes.Equal(got[keep:], make([]byte, 2*testBS-keep)) {
		t.Fatal("stale bytes past the truncation point after crash: the zeroed tail was not fsynced")
	}
	fsckClean(t, dev)
}

// TestFsyncSkipsBlockReusedByAnotherFile: a dirty block freed by
// truncating a and then allocated to b belongs to b; a later fsync(a)
// must not write it on b's behalf.
func TestFsyncSkipsBlockReusedByAnotherFile(t *testing.T) {
	dev := newDevice(t, 1024)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	fa := openRW(t, v, task, "/a")
	pwrite(t, v, task, fa, patterned(2*testBS, 6), 0)
	fsync(t, v, task, fa)
	pwrite(t, v, task, fa, patterned(2*testBS, 7), 0) // both blocks dirty
	if err := v.Truncate(task, "/a", testBS); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	// First fit: b's one data block is the one a just gave up.
	fb := openRW(t, v, task, "/b")
	pwrite(t, v, task, fb, patterned(testBS, 8), 0)

	cache := cacheOf(t, v, task)
	writes := ktrace.Read(dev.CollectMetrics, "writes")
	fsync(t, v, task, fa)
	if got := ktrace.Read(dev.CollectMetrics, "writes") - writes; got != 1 {
		t.Fatalf("fsync(a) issued %d device writes, want a's 1 remaining block", got)
	}
	// Committed metadata stays dirty until a checkpoint; of the data
	// buffers, only b's block is still dirty.
	var dirty []*bufcache.BufferHead
	for block := uint64(0); block < dev.Blocks(); block++ {
		bh, err := cache.GetBlk(block)
		if err != kbase.EOK {
			t.Fatalf("GetBlk(%d): %v", block, err)
		}
		if bh.Dirty() && !bh.TestFlag(bufcache.BHMeta) {
			dirty = append(dirty, bh)
		}
		_ = bh.Put()
	}
	if len(dirty) != 1 || !bytes.Equal(dirty[0].Data, patterned(testBS, 8)) {
		t.Fatalf("%d dirty data buffers after fsync(a), want b's 1", len(dirty))
	}

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/a"); !bytes.Equal(got, patterned(2*testBS, 7)[:testBS]) {
		t.Fatal("fsynced data of a lost")
	}
	fsckClean(t, dev)
}

// TestFsyncedDataSurvivesReplayOfFreedDirBlock: a directory block is
// logged as metadata. Once the directory shrinks and a file takes the
// block over, that file's fsync writes the block home with no
// checkpoint in between, so the older logged copies are still in the
// journal. The free revokes the block; without the revoke, replay
// after a crash would overwrite the file's fsynced data with directory
// entries.
func TestFsyncedDataSurvivesReplayOfFreedDirBlock(t *testing.T) {
	dev := newDevice(t, 4096) // a 256-block journal: nothing checkpoints
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	if err := v.Mkdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Mkdir: %v", err)
	}
	// Empty files own no data blocks, so the directory's second block
	// is the only block the unlinks below free.
	name := func(i int) string { return fmt.Sprintf("/d/%060d", i) }
	const files = 10 // 72-byte entries: two 512-byte blocks
	for i := 0; i < files; i++ {
		fd, err := v.Open(task, name(i), vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open(%s): %v", name(i), err)
		}
		v.Close(fd)
	}
	for i := files - 1; i >= 7; i-- { // back to one block
		if err := v.Unlink(task, name(i)); err != kbase.EOK {
			t.Fatalf("Unlink(%s): %v", name(i), err)
		}
	}
	data := patterned(testBS, 9)
	fd := openRW(t, v, task, "/f")
	pwrite(t, v, task, fd, data, 0)
	fsync(t, v, task, fd)

	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/f"); !bytes.Equal(got, data) {
		t.Fatal("fsynced data overwritten by a replayed directory block")
	}
	fsckClean(t, dev)
}

// TestUnlinkSurvivesCrash: a committed unlink stays unlinked.
func TestUnlinkSurvivesCrash(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	writeFile(t, v, task, "/doomed", []byte("x"))
	v.SyncAll(task)
	if err := v.Unlink(task, "/doomed"); err != kbase.EOK {
		t.Fatalf("Unlink: %v", err)
	}
	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if _, err := v2.Stat(task2, "/doomed"); err != kbase.ENOENT {
		t.Fatalf("unlinked file resurrected: %v", err)
	}
}

// TestRenameAtomicUnderCrash: after a crash, exactly one of the two
// names exists.
func TestRenameAtomicUnderCrash(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	writeFile(t, v, task, "/old", []byte("content"))
	v.SyncAll(task)
	if err := v.Rename(task, "/old", "/new"); err != kbase.EOK {
		t.Fatalf("Rename: %v", err)
	}
	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	_, errOld := v2.Stat(task2, "/old")
	_, errNew := v2.Stat(task2, "/new")
	oldThere := errOld == kbase.EOK
	newThere := errNew == kbase.EOK
	if oldThere == newThere {
		t.Fatalf("rename not atomic: old=%v new=%v", errOld, errNew)
	}
}

// TestWritebackCrashTearsData: extlike journals metadata only
// (data=writeback), so a crash after an acknowledged write with no
// fsync replays the file's size and block map over a data block that
// never reached the disk. The file reads back as zeros of the written
// length, a state no prefix of the write could leave.
func TestWritebackCrashTearsData(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	data := []byte("acknowledged bytes")
	writeFile(t, v, task, "/ghost", data)
	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/ghost"); !bytes.Equal(got, make([]byte, len(data))) {
		t.Fatalf("after the crash /ghost holds %q, want %d zero bytes", got, len(data))
	}
}

// TestRandomCrashConsistency runs a deterministic random crash (some
// cached writes applied, some torn) and checks the file system still
// mounts and serves synced data.
func TestRandomCrashConsistency(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: testBS, Rng: kbase.NewRng(seed)})
		if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err != kbase.EOK {
			t.Fatalf("Mkfs: %v", err)
		}
		v, task := mount(t, dev, &extlike.FS{})
		writeFile(t, v, task, "/stable", patterned(testBS*2, byte(seed)))
		v.SyncAll(task)
		// Unsynced churn.
		v.Mkdir(task, "/churn")
		writeFile(t, v, task, "/churn/a", []byte("aa"))
		v.Rename(task, "/churn/a", "/churn/b")

		dev.Crash() // random subset applied, possibly torn
		v2, task2 := mount(t, dev, &extlike.FS{})
		if got := readFile(t, v2, task2, "/stable"); !bytes.Equal(got, patterned(testBS*2, byte(seed))) {
			t.Fatalf("seed %d: synced data corrupted", seed)
		}
	}
}

// TestCrashDuringManyOps stresses recovery with a longer committed
// history than the journal can hold at once (forcing mid-stream
// checkpoints).
func TestCrashDuringManyOps(t *testing.T) {
	dev := newDevice(t, 1024)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	for i := 0; i < 30; i++ {
		name := "/file-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		writeFile(t, v, task, name, patterned(64, byte(i)))
	}
	v2, task2 := crashAndRemount(t, dev, &extlike.FS{})
	ents, err := v2.ReadDir(task2, "/")
	if err != kbase.EOK {
		t.Fatalf("ReadDir after crash: %v", err)
	}
	if len(ents) != 30 {
		t.Fatalf("entries after crash = %d, want 30", len(ents))
	}
}
