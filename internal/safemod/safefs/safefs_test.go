package safefs

import (
	"bytes"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

func TestRecordRoundTrip(t *testing.T) {
	r := Record{
		Seq: 42, Kind: OpWrite, Path: "a/b", Path2: "", Off: 17,
		Data: []byte("payload bytes"),
	}
	enc := r.encode()
	got, n, err := decodeRecord(enc)
	if err != kbase.EOK {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Seq != 42 || got.Kind != OpWrite || got.Path != "a/b" || got.Off != 17 ||
		!bytes.Equal(got.Data, []byte("payload bytes")) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestRecordCorruptionDetected(t *testing.T) {
	r := Record{Seq: 1, Kind: OpCreate, Path: "x"}
	enc := r.encode()
	for _, i := range []int{0, 5, 12, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, _, err := decodeRecord(bad); err == kbase.EOK {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, _, err := decodeRecord(enc[:10]); err == kbase.EOK {
		t.Fatalf("truncated record not detected")
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(seq uint64, kind uint8, path, path2 string, off int64, data []byte) bool {
		if len(path) > 1000 || len(path2) > 1000 || len(data) > 4000 {
			return true
		}
		r := Record{Seq: seq, Kind: OpKind(kind), Path: path, Path2: path2, Off: off, Data: data}
		got, n, err := decodeRecord(r.encode())
		if err != kbase.EOK || n != r.encodedLen() {
			return false
		}
		return got.Seq == r.Seq && got.Kind == r.Kind && got.Path == r.Path &&
			got.Path2 == r.Path2 && got.Off == r.Off && bytes.Equal(got.Data, r.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyAgreesWithCanApply pins the invariant do() relies on:
// canApply accepts exactly the records apply executes successfully.
func TestApplyAgreesWithCanApply(t *testing.T) {
	paths := []string{"", "a", "b", "a/x", "a/y", "b/z", "missing/q"}
	kinds := []OpKind{OpCreate, OpMkdir, OpUnlink, OpRmdir, OpRename, OpWrite, OpTruncate}
	f := func(ops []uint16) bool {
		ck := own.NewChecker(own.PolicyRecord)
		st := newFstate(ck)
		for _, o := range ops {
			r := Record{
				Kind:  kinds[int(o)%len(kinds)],
				Path:  paths[int(o/8)%len(paths)],
				Path2: paths[int(o/64)%len(paths)],
				Off:   int64(o % 5),
				Data:  []byte("d"),
			}
			want := canApply(st, r)
			got := st.apply(r)
			if (want == kbase.EOK) != (got == kbase.EOK) {
				t.Logf("divergence on %+v: canApply=%v apply=%v", r, want, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- VFS integration ---

func mountSafefs(t *testing.T, dev spec.DiskLike, ck *own.Checker, syncOnCommit bool) (*vfs.VFS, *kbase.Task) {
	t.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	if err := v.RegisterFS(&FS{SyncOnCommit: syncOnCommit}); err != kbase.EOK {
		t.Fatalf("RegisterFS: %v", err)
	}
	if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&MountData{Disk: dev, Checker: ck})); err != kbase.EOK {
		t.Fatalf("Mount: %v", err)
	}
	return v, task
}

func newDev(t *testing.T) *blockdev.Device {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: 256, Rng: kbase.NewRng(3)})
	if err := Format(dev); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	return dev
}

func TestVFSRoundTrip(t *testing.T) {
	dev := newDev(t)
	ck := own.NewChecker(own.PolicyRecord)
	v, task := mountSafefs(t, dev, ck, true)
	if err := v.Mkdir(task, "/docs"); err != kbase.EOK {
		t.Fatalf("Mkdir: %v", err)
	}
	fd, err := v.Open(task, "/docs/readme", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	payload := []byte("safe by construction")
	if n, err := v.Write(task, fd, payload); err != kbase.EOK || n != len(payload) {
		t.Fatalf("Write = (%d, %v)", n, err)
	}
	v.Lseek(task, fd, 0, vfs.SeekSet)
	got := make([]byte, len(payload))
	if n, err := v.Read(task, fd, got); err != kbase.EOK || n != len(payload) {
		t.Fatalf("Read = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q", got)
	}
	st, _ := v.Stat(task, "/docs/readme")
	if st.Size != int64(len(payload)) {
		t.Fatalf("Stat.Size = %d", st.Size)
	}
	v.Close(fd)
	ents, err := v.ReadDir(task, "/docs")
	if err != kbase.EOK || len(ents) != 1 || ents[0].Name != "readme" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
}

func TestVFSSemantics(t *testing.T) {
	dev := newDev(t)
	v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	v.Mkdir(task, "/d")
	fd, _ := v.Open(task, "/d/f", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("abc"))
	v.Close(fd)
	if err := v.Rmdir(task, "/d"); err != kbase.ENOTEMPTY {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := v.Unlink(task, "/d"); err != kbase.EISDIR {
		t.Fatalf("Unlink dir: %v", err)
	}
	if err := v.Rename(task, "/d/f", "/top"); err != kbase.EOK {
		t.Fatalf("Rename: %v", err)
	}
	if err := v.Rmdir(task, "/d"); err != kbase.EOK {
		t.Fatalf("Rmdir: %v", err)
	}
	if err := v.Truncate(task, "/top", 1); err != kbase.EOK {
		t.Fatalf("Truncate: %v", err)
	}
	st, _ := v.Stat(task, "/top")
	if st.Size != 1 {
		t.Fatalf("size = %d", st.Size)
	}
}

func TestDirectoryRenameMovesSubtree(t *testing.T) {
	dev := newDev(t)
	v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	v.Mkdir(task, "/old")
	v.Mkdir(task, "/old/sub")
	fd, _ := v.Open(task, "/old/sub/file", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("x"))
	v.Close(fd)
	if err := v.Rename(task, "/old", "/new"); err != kbase.EOK {
		t.Fatalf("dir rename: %v", err)
	}
	if _, err := v.Stat(task, "/new/sub/file"); err != kbase.EOK {
		t.Fatalf("subtree lost: %v", err)
	}
	if _, err := v.Stat(task, "/old/sub/file"); err != kbase.ENOENT {
		t.Fatalf("old path alive: %v", err)
	}
	// Renaming a directory into itself is rejected.
	v.Mkdir(task, "/cycle")
	if err := v.Rename(task, "/cycle", "/cycle/inner"); err == kbase.EOK {
		t.Fatalf("rename into self allowed")
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	dev := newDev(t)
	v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	v.Mkdir(task, "/keep")
	fd, _ := v.Open(task, "/keep/data", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("persist"))
	v.Close(fd)
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	v2, task2 := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	fd2, err := v2.Open(task2, "/keep/data", vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("reopen: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := v2.Read(task2, fd2, buf)
	if string(buf[:n]) != "persist" {
		t.Fatalf("content = %q", buf[:n])
	}
}

func TestCommittedOpsSurviveCrash(t *testing.T) {
	dev := newDev(t)
	v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	v.Mkdir(task, "/d")
	fd, _ := v.Open(task, "/d/f", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("durable data"))
	v.Close(fd)
	// Power loss without unmount or sync: SyncOnCommit means every
	// acknowledged op is already durable.
	dev.CrashApplyNone()
	v2, task2 := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	fd2, err := v2.Open(task2, "/d/f", vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("file lost after crash: %v", err)
	}
	buf := make([]byte, 32)
	n, _ := v2.Read(task2, fd2, buf)
	if string(buf[:n]) != "durable data" {
		t.Fatalf("data after crash = %q", buf[:n])
	}
}

func TestUnsyncedModeLosesAtMostSuffix(t *testing.T) {
	dev := newDev(t)
	v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), false)
	for _, p := range []string{"/a", "/b", "/c"} {
		fd, _ := v.Open(task, p, vfs.OWrOnly|vfs.OCreate)
		v.Write(task, fd, []byte(p))
		v.Close(fd)
	}
	v.SyncAll(task) // /a /b /c durable
	fd, _ := v.Open(task, "/d", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd) // /d not synced
	dev.CrashApplyNone()
	v2, task2 := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), false)
	for _, p := range []string{"/a", "/b", "/c"} {
		if _, err := v2.Stat(task2, p); err != kbase.EOK {
			t.Fatalf("synced %s lost: %v", p, err)
		}
	}
	// /d may or may not exist; both are prefix-consistent. Just make
	// sure the volume is healthy.
	if _, err := v2.ReadDir(task2, "/"); err != kbase.EOK {
		t.Fatalf("volume unhealthy: %v", err)
	}
}

func TestCheckpointCycleAndRecovery(t *testing.T) {
	dev := newDev(t)
	ck := own.NewChecker(own.PolicyRecord)
	v, task := mountSafefs(t, dev, ck, true)
	// Enough writes to wrap the log several times (forcing multiple
	// checkpoints through both regions).
	payload := bytes.Repeat([]byte("Z"), 512)
	for i := 0; i < 60; i++ {
		name := "/f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		fd, err := v.Open(task, name, vfs.OWrOnly|vfs.OCreate|vfs.OTrunc)
		if err != kbase.EOK {
			t.Fatalf("Open %d: %v", i, err)
		}
		if _, err := v.Write(task, fd, payload); err != kbase.EOK {
			t.Fatalf("Write %d: %v", i, err)
		}
		v.Close(fd)
	}
	dev.CrashApplyNone()
	v2, task2 := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
	ents, err := v2.ReadDir(task2, "/")
	if err != kbase.EOK {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 60 {
		t.Fatalf("entries after checkpointed crash = %d, want 60", len(ents))
	}
}

func TestOwnershipCleanShutdown(t *testing.T) {
	dev := newDev(t)
	ck := own.NewChecker(own.PolicyRecord)
	v, task := mountSafefs(t, dev, ck, true)
	fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("bytes"))
	v.Close(fd)
	v.Unlink(task, "/f")
	fd, _ = v.Open(task, "/g", vfs.OWrOnly|vfs.OCreate)
	v.Close(fd)
	if err := v.Unmount(task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	if n := ck.LiveCount(); n != 0 {
		t.Fatalf("%d ownership cells leaked: %v", n, ck.CheckLeaks())
	}
	if ck.Count() != 0 {
		t.Fatalf("ownership violations: %v", ck.Violations())
	}
}

func TestMountGarbageDevice(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 256, Rng: kbase.NewRng(1)})
	fs := &FS{}
	if _, err := fs.Mount(nil, vfs.NewMountData(&MountData{Disk: dev})); err != kbase.EUCLEAN {
		t.Fatalf("mount of unformatted device: %v", err)
	}
	if _, err := fs.Mount(nil, vfs.NewMountData("wrong type")); err != kbase.EINVAL {
		t.Fatalf("mount with confused data: %v", err)
	}
}

// mustInst unwraps the superblock's fsInstance through the typed
// accessor.
func mustInst(sb *vfs.SuperBlock) *fsInstance {
	inst, ok := vfs.SBPrivateAs[*fsInstance](sb)
	if !ok {
		panic("superblock private is not *fsInstance")
	}
	return inst
}

func TestModuleMetadata(t *testing.T) {
	m := Module{}
	if m.ModuleName() != "safefs" || m.Implements().Name != IfaceName {
		t.Fatalf("metadata wrong")
	}
	if m.Level().String() != "verified" {
		t.Fatalf("level = %s", m.Level())
	}
}

// TestRenameFileToSelfIsNoop pins the fix for a bug the randomized
// refinement property found: renaming a file onto itself used to free
// the file's content cell and drop the file entirely.
func TestRenameFileToSelfIsNoop(t *testing.T) {
	dev := newDev(t)
	ck := own.NewChecker(own.PolicyRecord)
	v, task := mountSafefs(t, dev, ck, true)
	fd, _ := v.Open(task, "/self", vfs.OWrOnly|vfs.OCreate)
	v.Write(task, fd, []byte("content"))
	v.Close(fd)
	if err := v.Rename(task, "/self", "/self"); err != kbase.EOK {
		t.Fatalf("self rename: %v", err)
	}
	st, err := v.Stat(task, "/self")
	if err != kbase.EOK || st.Size != 7 {
		t.Fatalf("file damaged by self rename: (%+v, %v)", st, err)
	}
	if ck.Count() != 0 {
		t.Fatalf("ownership violations: %v", ck.Violations())
	}
}

// TestCrashDuringCheckpointSurvives: crash with random subsets of the
// in-flight checkpoint writes applied (possibly torn). The alternate
// checkpoint region plus the untouched log must always recover the
// full pre-checkpoint state.
func TestCrashDuringCheckpointSurvives(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: 256, Rng: kbase.NewRng(seed)})
		if err := Format(dev); err != kbase.EOK {
			t.Fatalf("format: %v", err)
		}
		v, task := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
		for _, p := range []string{"/a", "/b", "/c"} {
			fd, _ := v.Open(task, p, vfs.OWrOnly|vfs.OCreate)
			v.Write(task, fd, []byte("data-"+p))
			v.Close(fd)
		}
		// Start a checkpoint but crash before its flush completes:
		// write the checkpoint blocks, then crash with a random
		// subset applied (torn region).
		root, _ := v.Resolve(task, "/")
		inst := mustInst(root.Sb)
		inst.nsLock.DownWrite(nil)
		newGen := inst.store.ckptGen + 1
		img, ierr := inst.store.checkpointImage(inst.st, newGen, inst.store.seq-1)
		if ierr != kbase.EOK {
			t.Fatalf("checkpointImage: %v", ierr)
		}
		start := inst.store.sb.CkptAStart
		if newGen%2 == 0 {
			start = inst.store.sb.CkptBStart
		}
		if err := inst.store.writeCheckpoint(start, img); err != kbase.EOK {
			t.Fatalf("writeCheckpoint: %v", err)
		}
		inst.nsLock.UpWrite(nil)
		// No flush: the checkpoint writes are pending. Random crash.
		dev.Crash()

		v2, task2 := mountSafefs(t, dev, own.NewChecker(own.PolicyRecord), true)
		for _, p := range []string{"/a", "/b", "/c"} {
			fd, err := v2.Open(task2, p, vfs.ORdOnly)
			if err != kbase.EOK {
				t.Fatalf("seed %d: %s lost across torn checkpoint: %v", seed, p, err)
			}
			buf := make([]byte, 32)
			n, _ := v2.Read(task2, fd, buf)
			if string(buf[:n]) != "data-"+p {
				t.Fatalf("seed %d: %s corrupted: %q", seed, p, buf[:n])
			}
			v2.Close(fd)
		}
	}
}
