package extlike

import (
	"testing"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// White-box tests of what extlike does with state it did not make: a
// write state from another layer, and a superblock with hostile fields.

// foreignState is a write state extlike never issued.
type foreignState struct{ ei *einode }

// TestConfuseWriteEndDetected: a layer above extlike begins a write
// through extlike's WriteBegin, then hands WriteCopy a write state of
// its own. The cast must fail with one type-confusion oops and EUCLEAN,
// the write WriteBegin opened must end (lock and journal handle), and
// the volume must keep serving.
func TestConfuseWriteEndDetected(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	dev := blockdev.New(blockdev.Config{Blocks: 256, BlockSize: dcBS, Rng: kbase.NewRng(11)})
	v, task, inst := dcMount(t, dev, true)
	fd, err := v.Open(task, "/x", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	vi, ei := dcDir(t, v, task, "/x")
	fo := &fileOps{inst: inst}
	if _, err := fo.WriteBegin(task, vi, 0, 4); err != kbase.EOK {
		t.Fatalf("WriteBegin: %v", err)
	}
	if _, err := fo.WriteCopy(task, vi, 0, []byte("boom"), vfs.NewWriteState(&foreignState{ei})); err != kbase.EUCLEAN {
		t.Fatalf("WriteCopy with a foreign state: %v, want EUCLEAN", err)
	}
	if n := rec.Count(kbase.OopsTypeConfusion); n != 1 {
		t.Fatalf("type-confusion oopses = %d, want 1", n)
	}
	if n, err := v.Write(task, fd, []byte("after")); err != kbase.EOK || n != 5 {
		t.Fatalf("write after the confusion = (%d, %v)", n, err)
	}
	if err := v.Close(fd); err != kbase.EOK {
		t.Fatalf("Close: %v", err)
	}
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	if rep, err := Fsck(dev); err != kbase.EOK || !rep.Clean() {
		t.Fatalf("fsck after the confusion: %v\n%s", err, rep.Summary())
	}
}

// skipBegin is a layer stacked on extlike's file operations that never
// calls extlike's WriteBegin and hands its own state down instead.
type skipBegin struct{ vfs.FileOps }

func (s skipBegin) WriteBegin(*kbase.Task, *vfs.Inode, int64, int) (vfs.WriteState, kbase.Errno) {
	return vfs.NewWriteState(&foreignState{}), kbase.EOK
}

// ownState is a layer stacked on extlike's file operations that calls
// extlike's WriteBegin, then hands its own state down instead of the
// one it was given.
type ownState struct{ vfs.FileOps }

func (s ownState) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	if _, err := s.FileOps.WriteBegin(task, ino, off, n); err != kbase.EOK {
		return vfs.WriteState{}, err
	}
	return vfs.NewWriteState(&foreignState{}), kbase.EOK
}

// TestConfusedWrapperWriteCleansUp writes through each wrapper shape
// with the VFS. The write must fail EUCLEAN with one type-confusion
// oops; whatever extlike's WriteBegin opened must end, so a later
// create completes (an open journal handle blocks its commit forever);
// extlike must release no lock it does not hold (Go's unlock of an
// unlocked mutex is fatal); and the volume must fsck clean.
func TestConfusedWrapperWriteCleansUp(t *testing.T) {
	for _, c := range []struct {
		name string
		wrap func(vfs.FileOps) vfs.FileOps
	}{
		{"skip-begin", func(fo vfs.FileOps) vfs.FileOps { return skipBegin{fo} }},
		{"own-state", func(fo vfs.FileOps) vfs.FileOps { return ownState{fo} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			dev := blockdev.New(blockdev.Config{Blocks: 256, BlockSize: dcBS, Rng: kbase.NewRng(11)})
			v, task, _ := dcMount(t, dev, true)
			fd, err := v.Open(task, "/x", vfs.ORdWr|vfs.OCreate)
			if err != kbase.EOK {
				t.Fatalf("Open: %v", err)
			}
			vi, _ := dcDir(t, v, task, "/x")
			inner := vi.FileOps
			vi.FileOps = c.wrap(inner)
			if _, err := v.Write(task, fd, []byte("boom")); err != kbase.EUCLEAN {
				t.Fatalf("write through the wrapper: %v, want EUCLEAN", err)
			}
			vi.FileOps = inner
			if n := rec.Count(kbase.OopsTypeConfusion); n != 1 {
				t.Fatalf("type-confusion oopses = %d, want 1", n)
			}
			created := make(chan kbase.Errno, 1)
			go func() {
				task := kbase.NewTask()
				fd, err := v.Open(task, "/y", vfs.OWrOnly|vfs.OCreate)
				if err == kbase.EOK {
					err = v.Close(fd)
				}
				created <- err
			}()
			select {
			case err := <-created:
				if err != kbase.EOK {
					t.Fatalf("create after the confusion: %v", err)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("create after the confusion still blocked after 3 s")
			}
			if n, err := v.Pwrite(task, fd, []byte("after"), 0); err != kbase.EOK || n != 5 {
				t.Fatalf("write after the confusion = (%d, %v)", n, err)
			}
			if err := v.Close(fd); err != kbase.EOK {
				t.Fatalf("Close: %v", err)
			}
			if err := v.Unmount(task, "/"); err != kbase.EOK {
				t.Fatalf("Unmount: %v", err)
			}
			if rep, err := Fsck(dev); err != kbase.EOK || !rep.Clean() {
				t.Fatalf("fsck after the confusion: %v\n%s", err, rep.Summary())
			}
		})
	}
}

// TestHostileSuperblockRefused plants superblock fields that used to
// crash mount or fsck: a block size of 7 (fsck divided by zero in
// itabLocate), a 3-block journal (journal.New panicked during mount)
// and a data area starting past the end of the device (the volume
// mounted, and a later unlink oopsed). The last case is a journal
// length that wraps the layout sum, with the data area where the
// wrapped sum puts it. Each must be refused with EUCLEAN by mount and
// by Fsck, with no panic and no oops.
func TestHostileSuperblockRefused(t *testing.T) {
	cases := []struct {
		name  string
		plant func(*Superblock)
	}{
		{"block-size-7", func(sb *Superblock) { sb.BlockSize = 7 }},
		{"journal-3-blocks", func(sb *Superblock) { sb.JournalLen = 3 }},
		{"data-past-device", func(sb *Superblock) { sb.DataStart = sb.TotalBlocks + 4 }},
		{"journal-wraps", func(sb *Superblock) {
			sb.JournalLen = 1<<64 - 2
			sb.DataStart = sb.JournalStart + sb.JournalLen
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			dev := blockdev.New(blockdev.Config{Blocks: 256, BlockSize: dcBS, Rng: kbase.NewRng(11)})
			geo, err := Mkfs(dev, MkfsOptions{})
			if err != kbase.EOK {
				t.Fatalf("Mkfs: %v", err)
			}
			sb := geo.SB
			c.plant(&sb)
			buf := make([]byte, dcBS)
			sb.encode(buf)
			if err := dev.Write(0, buf); err != kbase.EOK {
				t.Fatalf("write superblock: %v", err)
			}
			v := vfs.New(nil)
			task := kbase.NewTask()
			if err := v.RegisterFS(&FS{}); err != kbase.EOK {
				t.Fatalf("RegisterFS: %v", err)
			}
			if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&MountData{Dev: dev})); err != kbase.EUCLEAN {
				t.Fatalf("Mount = %v, want EUCLEAN", err)
			}
			if _, err := Fsck(dev); err != kbase.EUCLEAN {
				t.Fatalf("Fsck = %v, want EUCLEAN", err)
			}
			if n := rec.Count(""); n != 0 {
				t.Fatalf("%d oopses, want none", n)
			}
		})
	}
}
