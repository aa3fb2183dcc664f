package safefs

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/own"
)

// fuzzImage builds the image FuzzSafefsMount patches: a 256-block,
// 512 B volume holding a directory, files in a checkpoint and more
// in the log after it.
func fuzzImage(tb testing.TB) []byte {
	tb.Helper()
	disk := newMemDisk(256, 512)
	if err := Format(disk); err != kbase.EOK {
		tb.Fatalf("Format: %v", err)
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&FS{SyncOnCommit: true})
	if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&MountData{Disk: disk})); err != kbase.EOK {
		tb.Fatalf("Mount: %v", err)
	}
	write := func(path string, n int) {
		fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			tb.Fatalf("Open %s: %v", path, err)
		}
		if _, err := v.Write(task, fd, bytes.Repeat([]byte(path), n)); err != kbase.EOK {
			tb.Fatalf("Write %s: %v", path, err)
		}
		v.Close(fd)
	}
	if err := v.Mkdir(task, "/d"); err != kbase.EOK {
		tb.Fatalf("Mkdir: %v", err)
	}
	write("/d/a", 200)
	write("/b", 30)
	root, err := v.Resolve(task, "/")
	if err != kbase.EOK {
		tb.Fatalf("Resolve: %v", err)
	}
	if err := mustInst(root.Sb).Checkpoint(); err != kbase.EOK {
		tb.Fatalf("Checkpoint: %v", err)
	}
	write("/c", 100)
	if err := v.Rename(task, "/b", "/d/b"); err != kbase.EOK {
		tb.Fatalf("Rename: %v", err)
	}
	return append([]byte(nil), disk.data...)
}

// FuzzSafefsMount patches one byte range of a small formatted image,
// then mounts it, reads every file, writes one, unlinks one and
// unmounts. A refused mount is fine; a Go panic, an oops or an
// ownership violation fails.
func FuzzSafefsMount(f *testing.F) {
	img := fuzzImage(f)
	f.Add(uint32(0), []byte{})
	f.Add(uint32(24), []byte{1})
	f.Add(uint32(512+24), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, at uint32, patch []byte) {
		rec := &kbase.OopsRecorder{}
		prev := kbase.InstallRecorder(rec)
		defer kbase.InstallRecorder(prev)
		disk := newMemDisk(256, 512)
		copy(disk.data, img)
		copy(disk.data[int(at)%len(disk.data):], patch)

		ck := own.NewChecker(own.PolicyRecord)
		v := vfs.New(nil)
		task := kbase.NewTask()
		v.RegisterFS(&FS{SyncOnCommit: true})
		if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&MountData{Disk: disk, Checker: ck})); err != kbase.EOK {
			return
		}
		var files []string
		var walk func(dir string)
		walk = func(dir string) {
			ents, err := v.ReadDir(task, dir)
			if err != kbase.EOK {
				return
			}
			for _, e := range ents {
				p := dir + "/" + e.Name
				if dir == "/" {
					p = "/" + e.Name
				}
				if e.Mode.IsDir() {
					walk(p)
					continue
				}
				files = append(files, p)
				fd, err := v.Open(task, p, vfs.ORdOnly)
				if err != kbase.EOK {
					continue
				}
				buf := make([]byte, 512)
				for off := int64(0); ; off += int64(len(buf)) {
					if n, err := v.Pread(task, fd, buf, off); err != kbase.EOK || n == 0 {
						break
					}
				}
				v.Close(fd)
			}
		}
		walk("/")
		if fd, err := v.Open(task, "/new", vfs.OWrOnly|vfs.OCreate); err == kbase.EOK {
			v.Write(task, fd, bytes.Repeat([]byte("n"), 700))
			v.Close(fd)
		}
		if len(files) > 0 {
			v.Unlink(task, files[0])
		}
		v.Unmount(task, "/")
		if n := rec.Count(""); n != 0 {
			t.Fatalf("%d oopses: %v", n, rec.Events())
		}
		if n := ck.Count(); n != 0 {
			t.Fatalf("%d ownership violations: %v", n, ck.Violations())
		}
	})
}
