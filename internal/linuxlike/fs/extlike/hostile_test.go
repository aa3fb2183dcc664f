package extlike

import (
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// White-box tests of what extlike does with state it did not make: a
// write state from another layer, and a superblock with hostile fields.

// foreignState is a write state extlike never issued.
type foreignState struct{ ei *einode }

// TestConfuseWriteEndDetected: a layer above extlike hands WriteCopy a
// write state of its own, with the inode lock held as WriteBegin leaves
// it. The cast must fail with one type-confusion oops and EUCLEAN, the
// lock must come back, and the volume must keep serving.
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
	ei.lock.Lock(task) // as WriteBegin takes it
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
