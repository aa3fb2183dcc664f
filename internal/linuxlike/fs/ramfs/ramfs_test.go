package ramfs_test

import (
	"testing"

	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

func mountRamfs(t *testing.T, fs *ramfs.FS) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(fs); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "ramfs", vfs.MountData{}); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

func TestSparseWriteZeroFills(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/sparse", vfs.ORdWr|vfs.OCreate)
	if _, err := v.Pwrite(task, fd, []byte{0xFF}, 100); err != kbase.EOK {
		t.Fatalf("Pwrite: %v", err)
	}
	buf := make([]byte, 101)
	n, err := v.Pread(task, fd, buf, 0)
	if err != kbase.EOK || n != 101 {
		t.Fatalf("Pread = (%d, %v)", n, err)
	}
	for i := 0; i < 100; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, buf[i])
		}
	}
	if buf[100] != 0xFF {
		t.Fatalf("payload byte = %#x", buf[100])
	}
}

func TestReadBeyondEOF(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/f", vfs.ORdWr|vfs.OCreate)
	v.Write(task, fd, []byte("abc"))
	buf := make([]byte, 10)
	n, err := v.Pread(task, fd, buf, 100)
	if err != kbase.EOK || n != 0 {
		t.Fatalf("read past EOF = (%d, %v)", n, err)
	}
}

// foreignWriteOps stacks on ramfs's file operations, as a layered file
// system does, and hands ramfs a write state of its own: the §4.2
// type-confusion bug, planted from outside the module.
type foreignWriteOps struct{ vfs.FileOps }

func (foreignWriteOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	return vfs.NewWriteState(&off), kbase.EOK
}

// TestConfuseWriteEndFaultDetected: the write state WriteCopy gets is
// not the one ramfs's WriteBegin makes, and the downstream cast must
// misfire loudly, once, instead of writing.
func TestConfuseWriteEndFaultDetected(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/victim", vfs.OWrOnly|vfs.OCreate)
	ino, err := v.Resolve(task, "/victim")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	ino.FileOps = foreignWriteOps{ino.FileOps}
	if _, err := v.Write(task, fd, []byte("boom")); err != kbase.EUCLEAN {
		t.Fatalf("confused write err = %v, want EUCLEAN", err)
	}
	if n := rec.Count(kbase.OopsTypeConfusion); n != 1 {
		t.Fatalf("type-confusion oopses = %d, want 1", n)
	}
}

// TestPrivateStomp simulates another kernel component overwriting
// Inode.Private (possible because it is untyped and shared): the next
// ramfs operation must detect the confusion rather than corrupt state.
func TestPrivateStomp(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/victim", vfs.ORdWr|vfs.OCreate)
	v.Write(task, fd, []byte("data"))
	ino, err := v.Resolve(task, "/victim")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	vfs.SetPrivate(ino, "not a node") // the stomp, now through the audited setter
	if _, err := v.Pread(task, fd, make([]byte, 4), 0); err != kbase.EUCLEAN {
		t.Fatalf("read after stomp = %v, want EUCLEAN", err)
	}
	if rec.Count(kbase.OopsTypeConfusion) == 0 {
		t.Fatalf("stomp not reported as type confusion")
	}
}

func TestCreateEmptyNameRejected(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	ino, err := v.Resolve(task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve /: %v", err)
	}
	if _, cerr := ino.Ops.CreateTyped(task, ino, "", vfs.ModeRegular).Get(); cerr != kbase.EINVAL {
		t.Fatalf("empty-name create not rejected")
	}
}

func TestRenameReplacesFile(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	for _, name := range []string{"/a", "/b"} {
		fd, _ := v.Open(task, name, vfs.OWrOnly|vfs.OCreate)
		v.Write(task, fd, []byte(name))
		v.Close(fd)
	}
	if err := v.Rename(task, "/a", "/b"); err != kbase.EOK {
		t.Fatalf("Rename over existing: %v", err)
	}
	fd, _ := v.Open(task, "/b", vfs.ORdOnly)
	buf := make([]byte, 8)
	n, _ := v.Read(task, fd, buf)
	if string(buf[:n]) != "/a" {
		t.Fatalf("content after replace = %q", buf[:n])
	}
	if _, err := v.Stat(task, "/a"); err != kbase.ENOENT {
		t.Fatalf("/a survived rename: %v", err)
	}
}

func TestRenameOntoDirRefused(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	v.Mkdir(task, "/d")
	if err := v.Rename(task, "/f", "/d"); err != kbase.EISDIR {
		t.Fatalf("rename file over dir: %v", err)
	}
}

func TestNlinkDropsOnUnlink(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/n", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	ino, _ := v.Resolve(task, "/n")
	if ino.Nlink != 1 {
		t.Fatalf("initial nlink = %d", ino.Nlink)
	}
	v.Unlink(task, "/n")
	if ino.Nlink != 0 {
		t.Fatalf("nlink after unlink = %d", ino.Nlink)
	}
}

func TestRamfsDirOpsDirect(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	if err := v.Mkdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Mkdir: %v", err)
	}
	if err := v.Mkdir(task, "/d/e"); err != kbase.EOK {
		t.Fatalf("Mkdir nested: %v", err)
	}
	if err := v.Rmdir(task, "/d"); err != kbase.ENOTEMPTY {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := v.Rmdir(task, "/d/e"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
	ents, err := v.ReadDir(task, "/d")
	if err != kbase.EOK || len(ents) != 0 {
		t.Fatalf("ReadDir = (%v, %v)", ents, err)
	}
	// Rmdir of a file and of a missing name.
	fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Rmdir(task, "/f"); err != kbase.ENOTDIR {
		t.Fatalf("Rmdir file: %v", err)
	}
	if err := v.Rmdir(task, "/ghost"); err != kbase.ENOENT {
		t.Fatalf("Rmdir ghost: %v", err)
	}
}

func TestRamfsTruncateFsyncSyncUnmount(t *testing.T) {
	v, task := mountRamfs(t, &ramfs.FS{})
	fd, _ := v.Open(task, "/t", vfs.ORdWr|vfs.OCreate)
	v.Write(task, fd, []byte("0123456789"))
	if err := v.Truncate(task, "/t", 4); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	if err := v.Truncate(task, "/t", 8); err != kbase.EOK {
		t.Fatalf("Truncate extend: %v", err)
	}
	if err := v.Fsync(task, fd); err != kbase.EOK {
		t.Fatalf("Fsync: %v", err)
	}
	v.Close(fd)
	sf, err := v.Statfs(task, "/")
	if err != kbase.EOK || sf.FSName != "ramfs" {
		t.Fatalf("Statfs = (%+v, %v)", sf, err)
	}
	if err := v.SyncAll(task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
}
