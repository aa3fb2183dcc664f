package vfs_test

import (
	"testing"

	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/typedapi"
)

// TestBoundaryDetectorLearnsAndEnforces wires the §4.2 type-confusion
// detector into the VFS write path: a known-good workload teaches it
// the per-FS token types, after which a confused module is caught on
// its first crossing — before the downstream cast.
func TestBoundaryDetectorLearnsAndEnforces(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	det := typedapi.NewDetector()
	det.LearnMode = true

	// Phase 1: learn from a healthy ramfs.
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&ramfs.FS{})
	v.Mount(task, "/", "ramfs", vfs.MountData{})
	v.InstrumentBoundaries(det)
	fd, _ := v.Open(task, "/train", vfs.OWrOnly|vfs.OCreate)
	for i := 0; i < 5; i++ {
		if _, err := v.Write(task, fd, []byte("training")); err != kbase.EOK {
			t.Fatalf("training write: %v", err)
		}
	}
	v.Close(fd)
	st := det.Stats()
	if len(st) != 1 || st[0].Crossings != 5 || st[0].Confusions != 0 {
		t.Fatalf("after training: %+v", st)
	}

	// Phase 2: the same detector observes a layer stacked on ramfs's
	// file operations that hands ramfs a write state of its own.
	v2 := vfs.New(nil)
	v2.RegisterFS(&ramfs.FS{})
	v2.Mount(task, "/", "ramfs", vfs.MountData{})
	v2.InstrumentBoundaries(det)
	fd2, _ := v2.Open(task, "/victim", vfs.OWrOnly|vfs.OCreate)
	victim, err := v2.Resolve(task, "/victim")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	victim.FileOps = foreignWriteOps{victim.FileOps}
	v2.Write(task, fd2, []byte("boom"))
	v2.Close(fd2)

	found := false
	for _, s := range det.Stats() {
		if s.Boundary == "vfs.write_private.ramfs" && s.Confusions > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("detector missed the confusion: %+v", det.Stats())
	}
	if rec.Count(kbase.OopsTypeConfusion) == 0 {
		t.Fatalf("confusion not reported")
	}
}

// foreignWriteOps stacks on a file system's file operations and makes
// its own write state in WriteBegin, which the lower WriteCopy and
// WriteEnd then receive.
type foreignWriteOps struct{ vfs.FileOps }

func (foreignWriteOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	return vfs.NewWriteState(&off), kbase.EOK
}

// TestBoundaryDetectorPerFSTypes: two file systems with different
// token types train distinct boundaries; neither confuses the other.
func TestBoundaryDetectorPerFSTypes(t *testing.T) {
	det := typedapi.NewDetector()
	det.LearnMode = true
	task := kbase.NewTask()

	for _, name := range []string{"a", "b"} {
		v := vfs.New(nil)
		v.RegisterFS(&ramfs.FS{})
		v.Mount(task, "/", "ramfs", vfs.MountData{})
		v.InstrumentBoundaries(det)
		fd, _ := v.Open(task, "/"+name, vfs.OWrOnly|vfs.OCreate)
		v.Write(task, fd, []byte(name))
		v.Close(fd)
	}
	for _, s := range det.Stats() {
		if s.Confusions != 0 {
			t.Fatalf("cross-instance false positive: %+v", s)
		}
	}
}
