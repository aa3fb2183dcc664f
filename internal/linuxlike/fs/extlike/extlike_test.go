package extlike_test

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

const testBS = 512

func newDevice(t *testing.T, blocks uint64) *blockdev.Device {
	t.Helper()
	return blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: testBS, Rng: kbase.NewRng(11)})
}

func mkfsAndMount(t *testing.T, dev *blockdev.Device, fs *extlike.FS) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	return mount(t, dev, fs)
}

func mount(t *testing.T, dev *blockdev.Device, fs *extlike.FS) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(fs); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

func writeFile(t *testing.T, v *vfs.VFS, task *kbase.Task, path string, data []byte) {
	t.Helper()
	fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate|vfs.OTrunc)
	if err != kbase.EOK {
		t.Fatalf("Open(%s): %v", path, err)
	}
	if n, err := v.Write(task, fd, data); err != kbase.EOK || n != len(data) {
		t.Fatalf("Write(%s) = (%d, %v)", path, n, err)
	}
	if err := v.Close(fd); err != kbase.EOK {
		t.Fatalf("Close: %v", err)
	}
}

func readFile(t *testing.T, v *vfs.VFS, task *kbase.Task, path string) []byte {
	t.Helper()
	fd, err := v.Open(task, path, vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer v.Close(fd)
	st, err := v.Stat(task, path)
	if err != kbase.EOK {
		t.Fatalf("Stat(%s): %v", path, err)
	}
	buf := make([]byte, st.Size)
	if n, err := v.Read(task, fd, buf); err != kbase.EOK || int64(n) != st.Size {
		t.Fatalf("Read(%s) = (%d, %v), size %d", path, n, err, st.Size)
	}
	return buf
}

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestMkfsGeometry(t *testing.T) {
	dev := newDevice(t, 256)
	geo, err := extlike.Mkfs(dev, extlike.MkfsOptions{})
	if err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	sb := geo.SB
	if sb.DataStart <= sb.JournalStart || sb.JournalStart <= sb.ITabStart {
		t.Fatalf("layout out of order: %+v", sb)
	}
	if sb.TotalBlocks != 256 || sb.BlockSize != testBS {
		t.Fatalf("geometry: %+v", sb)
	}
	if geo.MaxFileSize() != (10+testBS/8)*testBS {
		t.Fatalf("MaxFileSize = %d", geo.MaxFileSize())
	}
}

func TestMkfsTooSmall(t *testing.T) {
	dev := newDevice(t, 8)
	if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{JournalLen: 32}); err != kbase.EINVAL {
		t.Fatalf("Mkfs on tiny device: %v", err)
	}
}

func TestMountRejectsForeignDevice(t *testing.T) {
	dev := newDevice(t, 64)
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&extlike.FS{})
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err != kbase.EUCLEAN {
		t.Fatalf("mount of unformatted device: %v", err)
	}
}

func TestMountDataTypeConfusion(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&extlike.FS{})
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData("oops-wrong-type")); err != kbase.EINVAL {
		t.Fatalf("mount with wrong data: %v", err)
	}
	if rec.Count(kbase.OopsTypeConfusion) != 1 {
		t.Fatalf("type confusion not recorded")
	}
}

func TestSmallFileRoundTrip(t *testing.T) {
	dev := newDevice(t, 256)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	data := []byte("journaled bytes")
	writeFile(t, v, task, "/f", data)
	if got := readFile(t, v, task, "/f"); !bytes.Equal(got, data) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestLargeFileUsesIndirect(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	// > 10 direct blocks worth of data.
	data := patterned(testBS*14, 3)
	writeFile(t, v, task, "/big", data)
	if got := readFile(t, v, task, "/big"); !bytes.Equal(got, data) {
		t.Fatalf("indirect round trip mismatch (len %d vs %d)", len(got), len(data))
	}
}

func TestFileTooBig(t *testing.T) {
	dev := newDevice(t, 2048)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	fd, _ := v.Open(task, "/huge", vfs.OWrOnly|vfs.OCreate)
	maxSize := int64((10 + testBS/8) * testBS)
	if _, err := v.Pwrite(task, fd, []byte{1}, maxSize); err != kbase.EFBIG {
		t.Fatalf("write past max size: %v", err)
	}
}

func TestENOSPC(t *testing.T) {
	dev := newDevice(t, 64)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	var err kbase.Errno
	for i := 0; i < 1000; i++ {
		fd, e := v.Open(task, "/fill", vfs.OWrOnly|vfs.OCreate|vfs.OAppend)
		if e != kbase.EOK {
			err = e
			break
		}
		_, e = v.Write(task, fd, patterned(testBS, byte(i)))
		v.Close(fd)
		if e != kbase.EOK {
			err = e
			break
		}
	}
	if err != kbase.ENOSPC {
		t.Fatalf("filling device ended with %v, want ENOSPC", err)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	dev := newDevice(t, 256)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	before, _ := v.Statfs(task, "/")
	writeFile(t, v, task, "/tmp", patterned(testBS*8, 1))
	during, _ := v.Statfs(task, "/")
	if during.FreeBlocks >= before.FreeBlocks {
		t.Fatalf("write did not consume blocks: %d -> %d", before.FreeBlocks, during.FreeBlocks)
	}
	if err := v.Unlink(task, "/tmp"); err != kbase.EOK {
		t.Fatalf("Unlink: %v", err)
	}
	after, _ := v.Statfs(task, "/")
	if after.FreeBlocks != before.FreeBlocks {
		t.Fatalf("blocks leaked: before=%d after=%d", before.FreeBlocks, after.FreeBlocks)
	}
	if after.FreeInodes != before.FreeInodes {
		t.Fatalf("inode leaked: before=%d after=%d", before.FreeInodes, after.FreeInodes)
	}
}

// unlinkOpenAndCrash writes data to a new file at path, unlinks it
// while its descriptor is still open and cuts the power before the
// last close: extlike keeps no orphan list, so the file's blocks and
// inode stay allocated on disk with nothing naming them.
func unlinkOpenAndCrash(t *testing.T, v *vfs.VFS, task *kbase.Task, dev *blockdev.Device, path string, data []byte) {
	t.Helper()
	fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open(%s): %v", path, err)
	}
	if n, err := v.Write(task, fd, data); err != kbase.EOK || n != len(data) {
		t.Fatalf("Write(%s) = (%d, %v)", path, n, err)
	}
	if err := v.Unlink(task, path); err != kbase.EOK {
		t.Fatalf("Unlink(%s): %v", path, err)
	}
	dev.CrashApplyNone()
}

// TestLeakOnUnlinkInjected: a file unlinked while open and lost to a
// crash before its last close leaks its blocks and its inode.
func TestLeakOnUnlinkInjected(t *testing.T) {
	dev := newDevice(t, 256)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	before, _ := v.Statfs(task, "/")
	unlinkOpenAndCrash(t, v, task, dev, "/tmp", patterned(testBS*8, 1))
	v2, task2 := mount(t, dev, &extlike.FS{})
	after, _ := v2.Statfs(task2, "/")
	if before.FreeBlocks-after.FreeBlocks != 8 || before.FreeInodes-after.FreeInodes != 1 {
		t.Fatalf("free blocks %d -> %d, free inodes %d -> %d; want 8 blocks and 1 inode leaked",
			before.FreeBlocks, after.FreeBlocks, before.FreeInodes, after.FreeInodes)
	}
}

func TestDirectoryOperations(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	for _, d := range []string{"/a", "/a/b", "/c"} {
		if err := v.Mkdir(task, d); err != kbase.EOK {
			t.Fatalf("Mkdir(%s): %v", d, err)
		}
	}
	writeFile(t, v, task, "/a/b/f1", []byte("one"))
	writeFile(t, v, task, "/a/f2", []byte("two"))
	ents, err := v.ReadDir(task, "/a")
	if err != kbase.EOK {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 2 || ents[0].Name != "b" || ents[1].Name != "f2" {
		t.Fatalf("ReadDir(/a) = %+v", ents)
	}
	if err := v.Rmdir(task, "/a"); err != kbase.ENOTEMPTY {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := v.Unlink(task, "/a/b/f1"); err != kbase.EOK {
		t.Fatalf("Unlink: %v", err)
	}
	if err := v.Rmdir(task, "/a/b"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
}

func TestRenameSameAndCrossDir(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	v.Mkdir(task, "/d1")
	v.Mkdir(task, "/d2")
	writeFile(t, v, task, "/d1/f", []byte("payload"))
	// Same-dir rename.
	if err := v.Rename(task, "/d1/f", "/d1/g"); err != kbase.EOK {
		t.Fatalf("same-dir rename: %v", err)
	}
	// Cross-dir rename.
	if err := v.Rename(task, "/d1/g", "/d2/h"); err != kbase.EOK {
		t.Fatalf("cross-dir rename: %v", err)
	}
	if got := readFile(t, v, task, "/d2/h"); string(got) != "payload" {
		t.Fatalf("after rename: %q", got)
	}
	// Rename over existing file replaces it and frees the old inode.
	writeFile(t, v, task, "/d2/victim", []byte("old"))
	before, _ := v.Statfs(task, "/")
	if err := v.Rename(task, "/d2/h", "/d2/victim"); err != kbase.EOK {
		t.Fatalf("replacing rename: %v", err)
	}
	after, _ := v.Statfs(task, "/")
	if got := readFile(t, v, task, "/d2/victim"); string(got) != "payload" {
		t.Fatalf("after replacing rename: %q", got)
	}
	if after.FreeInodes != before.FreeInodes+1 {
		t.Fatalf("replaced inode not freed: %d -> %d", before.FreeInodes, after.FreeInodes)
	}
}

func TestTruncateShrinkAndGrow(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	writeFile(t, v, task, "/t", patterned(testBS*12, 5))
	before, _ := v.Statfs(task, "/")
	if err := v.Truncate(task, "/t", testBS*2); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	after, _ := v.Statfs(task, "/")
	if after.FreeBlocks <= before.FreeBlocks {
		t.Fatalf("truncate freed nothing: %d -> %d", before.FreeBlocks, after.FreeBlocks)
	}
	got := readFile(t, v, task, "/t")
	if !bytes.Equal(got, patterned(testBS*12, 5)[:testBS*2]) {
		t.Fatalf("content after shrink wrong")
	}
	// Grow produces zeros.
	if err := v.Truncate(task, "/t", testBS*2+10); err != kbase.EOK {
		t.Fatalf("grow: %v", err)
	}
	got = readFile(t, v, task, "/t")
	if len(got) != testBS*2+10 || !bytes.Equal(got[testBS*2:], make([]byte, 10)) {
		t.Fatalf("grown tail not zero")
	}
}

func TestPersistenceAcrossCleanRemount(t *testing.T) {
	dev := newDevice(t, 512)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	v.Mkdir(task, "/keep")
	writeFile(t, v, task, "/keep/data", patterned(testBS*3, 9))
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	// Fresh VFS + mount on the same device.
	v2, task2 := mount(t, dev, &extlike.FS{})
	if got := readFile(t, v2, task2, "/keep/data"); !bytes.Equal(got, patterned(testBS*3, 9)) {
		t.Fatalf("data lost across remount")
	}
}

func TestStatfsCounts(t *testing.T) {
	dev := newDevice(t, 256)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	sf, err := v.Statfs(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Statfs: %v", err)
	}
	if sf.FSName != "extlike" || sf.TotalBlocks != 256 {
		t.Fatalf("Statfs = %+v", sf)
	}
	if sf.FreeInodes != sf.TotalInodes-1 { // root in use
		t.Fatalf("free inodes = %d of %d", sf.FreeInodes, sf.TotalInodes)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	dev := newDevice(t, 2048)
	v, task := mkfsAndMount(t, dev, &extlike.FS{})
	names := []string{}
	for i := 0; i < 40; i++ {
		name := "/dir-entry-with-a-reasonably-long-name-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		writeFile(t, v, task, name, []byte{byte(i)})
		names = append(names, name)
	}
	ents, err := v.ReadDir(task, "/")
	if err != kbase.EOK {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 40 {
		t.Fatalf("ReadDir found %d entries, want 40", len(ents))
	}
	for i, name := range names {
		got := readFile(t, v, task, name)
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("file %s content %v", name, got)
		}
	}
}
