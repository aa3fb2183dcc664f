package vfs_test

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

func newKernel(t *testing.T) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&ramfs.FS{}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "ramfs", vfs.MountData{}); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"/":            "/",
		"/a/b":         "/a/b",
		"//a///b/":     "/a/b",
		"/a/./b":       "/a/b",
		"/a/../b":      "/b",
		"/..":          "/",
		"/a/b/../../c": "/c",
		"rel/path":     "",
		"":             "",
	}
	for in, want := range cases {
		if got := vfs.CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	v, task := newKernel(t)
	fd, err := v.Open(task, "/hello.txt", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte("incremental safety")
	if n, err := v.Write(task, fd, payload); err != kbase.EOK || n != len(payload) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	if _, err := v.Lseek(task, fd, 0, vfs.SeekSet); err != kbase.EOK {
		t.Fatalf("Lseek: %v", err)
	}
	got := make([]byte, len(payload))
	if n, err := v.Read(task, fd, got); err != kbase.EOK || n != len(payload) {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, want %q", got, payload)
	}
	if err := v.Close(fd); err != kbase.EOK {
		t.Fatalf("Close: %v", err)
	}
	st, err := v.Stat(task, "/hello.txt")
	if err != kbase.EOK {
		t.Fatalf("Stat: %v", err)
	}
	if st.Size != int64(len(payload)) {
		t.Fatalf("Stat.Size = %d, want %d", st.Size, len(payload))
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	v, task := newKernel(t)
	if _, err := v.Open(task, "/missing", vfs.ORdOnly); err != kbase.ENOENT {
		t.Fatalf("Open missing: %v", err)
	}
	fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("abc"))
	v.Close(fd)
	if _, err := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate|vfs.OExcl); err != kbase.EEXIST {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	// O_TRUNC empties the file.
	fd, _ = v.Open(task, "/f", vfs.OWrOnly|vfs.OTrunc)
	v.Close(fd)
	st, _ := v.Stat(task, "/f")
	if st.Size != 0 {
		t.Fatalf("size after O_TRUNC = %d", st.Size)
	}
	// Read on write-only fd.
	fd, _ = v.Open(task, "/f", vfs.OWrOnly)
	if _, err := v.Read(task, fd, make([]byte, 1)); err != kbase.EBADF {
		t.Fatalf("Read on O_WRONLY: %v", err)
	}
	// Write on read-only fd.
	fd2, _ := v.Open(task, "/f", vfs.ORdOnly)
	if _, err := v.Write(task, fd2, []byte("x")); err != kbase.EBADF {
		t.Fatalf("Write on O_RDONLY: %v", err)
	}
}

func TestAppendMode(t *testing.T) {
	v, task := newKernel(t)
	fd, _ := v.Open(task, "/log", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("aaa"))
	v.Close(fd)
	fd, _ = v.Open(task, "/log", vfs.OWrOnly|vfs.OAppend)
	v.Write(task, fd, []byte("bbb"))
	v.Close(fd)
	fd, _ = v.Open(task, "/log", vfs.ORdOnly)
	buf := make([]byte, 16)
	n, _ := v.Read(task, fd, buf)
	if string(buf[:n]) != "aaabbb" {
		t.Fatalf("append result = %q", buf[:n])
	}
}

func TestPreadPwrite(t *testing.T) {
	v, task := newKernel(t)
	fd, _ := v.Open(task, "/p", vfs.ORdWr|vfs.OCreate)
	if _, err := v.Pwrite(task, fd, []byte("world"), 5); err != kbase.EOK {
		t.Fatalf("Pwrite: %v", err)
	}
	if _, err := v.Pwrite(task, fd, []byte("hello"), 0); err != kbase.EOK {
		t.Fatalf("Pwrite: %v", err)
	}
	buf := make([]byte, 5)
	if n, err := v.Pread(task, fd, buf, 5); err != kbase.EOK || n != 5 {
		t.Fatalf("Pread = (%d, %v)", n, err)
	}
	if string(buf) != "world" {
		t.Fatalf("Pread = %q", buf)
	}
	if _, err := v.Pread(task, fd, buf, -1); err != kbase.EINVAL {
		t.Fatalf("negative offset: %v", err)
	}
}

func TestMkdirTreeAndReadDir(t *testing.T) {
	v, task := newKernel(t)
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := v.Mkdir(task, p); err != kbase.EOK {
			t.Fatalf("Mkdir(%s): %v", p, err)
		}
	}
	fd, _ := v.Open(task, "/a/b/file", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	ents, err := v.ReadDir(task, "/a/b")
	if err != kbase.EOK {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 2 || ents[0].Name != "c" || ents[1].Name != "file" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if err := v.Mkdir(task, "/a"); err != kbase.EEXIST {
		t.Fatalf("Mkdir existing: %v", err)
	}
	if _, err := v.ReadDir(task, "/a/b/file"); err != kbase.ENOTDIR {
		t.Fatalf("ReadDir on file: %v", err)
	}
}

func TestUnlinkAndRmdir(t *testing.T) {
	v, task := newKernel(t)
	v.Mkdir(task, "/d")
	fd, _ := v.Open(task, "/d/f", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Rmdir(task, "/d"); err != kbase.ENOTEMPTY {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := v.Unlink(task, "/d"); err != kbase.EISDIR {
		t.Fatalf("Unlink dir: %v", err)
	}
	if err := v.Unlink(task, "/d/f"); err != kbase.EOK {
		t.Fatalf("Unlink: %v", err)
	}
	if _, err := v.Stat(task, "/d/f"); err != kbase.ENOENT {
		t.Fatalf("Stat after unlink: %v", err)
	}
	if err := v.Rmdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
	if err := v.Rmdir(task, "/d"); err != kbase.ENOENT {
		t.Fatalf("Rmdir gone: %v", err)
	}
}

func TestRename(t *testing.T) {
	v, task := newKernel(t)
	v.Mkdir(task, "/src")
	v.Mkdir(task, "/dst")
	fd, _ := v.Open(task, "/src/f", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("data"))
	v.Close(fd)
	if err := v.Rename(task, "/src/f", "/dst/g"); err != kbase.EOK {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := v.Stat(task, "/src/f"); err != kbase.ENOENT {
		t.Fatalf("old name still present: %v", err)
	}
	st, err := v.Stat(task, "/dst/g")
	if err != kbase.EOK || st.Size != 4 {
		t.Fatalf("new name: %v size=%d", err, st.Size)
	}
	// Rename a directory: paths beneath move with it.
	v.Mkdir(task, "/src/sub")
	fd, _ = v.Open(task, "/src/sub/x", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Rename(task, "/src/sub", "/dst/sub"); err != kbase.EOK {
		t.Fatalf("Rename dir: %v", err)
	}
	if _, err := v.Stat(task, "/dst/sub/x"); err != kbase.EOK {
		t.Fatalf("child after dir rename: %v", err)
	}
	if _, err := v.Stat(task, "/src/sub/x"); err != kbase.ENOENT {
		t.Fatalf("old child path alive: %v", err)
	}
}

func TestTruncate(t *testing.T) {
	v, task := newKernel(t)
	fd, _ := v.Open(task, "/t", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("0123456789"))
	v.Close(fd)
	if err := v.Truncate(task, "/t", 4); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	st, _ := v.Stat(task, "/t")
	if st.Size != 4 {
		t.Fatalf("size = %d", st.Size)
	}
	// Extend with zeros.
	if err := v.Truncate(task, "/t", 8); err != kbase.EOK {
		t.Fatalf("Truncate extend: %v", err)
	}
	fd, _ = v.Open(task, "/t", vfs.ORdOnly)
	buf := make([]byte, 8)
	v.Read(task, fd, buf)
	if string(buf) != "0123\x00\x00\x00\x00" {
		t.Fatalf("extended content = %q", buf)
	}
	if err := v.Truncate(task, "/t", -1); err != kbase.EINVAL {
		t.Fatalf("negative truncate: %v", err)
	}
}

func TestMountAtSubdirShadowsAndEXDEV(t *testing.T) {
	v, task := newKernel(t)
	v.Mkdir(task, "/mnt")
	if err := v.Mount(task, "/mnt", "ramfs", vfs.MountData{}); err != kbase.EOK {
		t.Fatalf("Mount /mnt: %v", err)
	}
	fd, _ := v.Open(task, "/mnt/inner", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if _, err := v.Stat(task, "/mnt/inner"); err != kbase.EOK {
		t.Fatalf("Stat on submount: %v", err)
	}
	// Cross-mount rename refused.
	fd, _ = v.Open(task, "/top", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Rename(task, "/top", "/mnt/top"); err != kbase.EXDEV {
		t.Fatalf("cross-mount rename: %v", err)
	}
	// Unmount refused while open.
	fd, _ = v.Open(task, "/mnt/inner", vfs.ORdOnly)
	if err := v.Unmount(task, "/mnt"); err != kbase.EBUSY {
		t.Fatalf("Unmount busy: %v", err)
	}
	v.Close(fd)
	if err := v.Unmount(task, "/mnt"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	if _, err := v.Stat(task, "/mnt/inner"); err != kbase.ENOENT {
		t.Fatalf("submount visible after unmount: %v", err)
	}
}

func TestMountErrors(t *testing.T) {
	v, task := newKernel(t)
	if err := v.Mount(task, "/", "nope", vfs.MountData{}); err != kbase.ENODEV {
		t.Fatalf("unknown fstype: %v", err)
	}
	if err := v.Mount(task, "/", "ramfs", vfs.MountData{}); err != kbase.EBUSY {
		t.Fatalf("double mount at /: %v", err)
	}
	if err := v.Mount(task, "relative", "ramfs", vfs.MountData{}); err != kbase.EINVAL {
		t.Fatalf("relative mount point: %v", err)
	}
	fd, _ := v.Open(task, "/file", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Mount(task, "/file", "ramfs", vfs.MountData{}); err != kbase.ENOTDIR {
		t.Fatalf("mount on file: %v", err)
	}
}

func TestBadFDAndDoubleClose(t *testing.T) {
	v, task := newKernel(t)
	if _, err := v.Read(task, 99, make([]byte, 1)); err != kbase.EBADF {
		t.Fatalf("Read bad fd: %v", err)
	}
	if err := v.Close(99); err != kbase.EBADF {
		t.Fatalf("Close bad fd: %v", err)
	}
	fd, _ := v.Open(task, "/x", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Close(fd); err != kbase.EBADF {
		t.Fatalf("double close: %v", err)
	}
}

func TestDcacheServesRepeatLookups(t *testing.T) {
	v, task := newKernel(t)
	v.Mkdir(task, "/dir")
	fd, _ := v.Open(task, "/dir/f", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	for i := 0; i < 10; i++ {
		if _, err := v.Stat(task, "/dir/f"); err != kbase.EOK {
			t.Fatalf("Stat: %v", err)
		}
	}
	var hits uint64
	v.CollectMetrics(func(name string, val uint64) {
		if name == "dcache_hits" {
			hits = val
		}
	})
	if hits == 0 {
		t.Fatalf("dcache never hit")
	}
	// Negative caching: repeated misses are also served.
	for i := 0; i < 3; i++ {
		if _, err := v.Stat(task, "/dir/none"); err != kbase.ENOENT {
			t.Fatalf("Stat missing: %v", err)
		}
	}
}

func TestOpenDirForWriteRefused(t *testing.T) {
	v, task := newKernel(t)
	v.Mkdir(task, "/d")
	if _, err := v.Open(task, "/d", vfs.OWrOnly); err != kbase.EISDIR {
		t.Fatalf("Open dir for write: %v", err)
	}
	if fd, err := v.Open(task, "/d", vfs.ORdOnly); err != kbase.EOK {
		t.Fatalf("Open dir read-only: %v", err)
	} else {
		v.Close(fd)
	}
}

func TestLseekWhence(t *testing.T) {
	v, task := newKernel(t)
	fd, _ := v.Open(task, "/s", vfs.ORdWr|vfs.OCreate)
	v.Write(task, fd, []byte("0123456789"))
	if pos, err := v.Lseek(task, fd, -3, vfs.SeekEnd); err != kbase.EOK || pos != 7 {
		t.Fatalf("SeekEnd = (%d, %v)", pos, err)
	}
	if pos, err := v.Lseek(task, fd, 1, vfs.SeekCur); err != kbase.EOK || pos != 8 {
		t.Fatalf("SeekCur = (%d, %v)", pos, err)
	}
	if _, err := v.Lseek(task, fd, -100, vfs.SeekCur); err != kbase.EINVAL {
		t.Fatalf("negative seek: %v", err)
	}
	if _, err := v.Lseek(task, fd, 0, 42); err != kbase.EINVAL {
		t.Fatalf("bad whence: %v", err)
	}
}

func TestPathTooLong(t *testing.T) {
	v, task := newKernel(t)
	long := make([]byte, vfs.MaxNameLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := v.Open(task, "/"+string(long), vfs.OCreate|vfs.OWrOnly); err != kbase.ENAMETOOLONG {
		t.Fatalf("long name: %v", err)
	}
}

func TestStatfsAndSyncAll(t *testing.T) {
	v, task := newKernel(t)
	fd, _ := v.Open(task, "/a", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	sf, err := v.Statfs(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Statfs: %v", err)
	}
	if sf.FSName != "ramfs" || sf.TotalInodes < 2 {
		t.Fatalf("Statfs = %+v", sf)
	}
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
}
