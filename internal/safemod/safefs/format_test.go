package safefs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

// encode is the reference record encoding: a fresh buffer holding
// exactly the record, checksummed through a hash.Hash. The store
// encodes in place (encodeInto); the tests pin that its bytes are
// these, zero-padded to whole blocks.
func (r *Record) encode() []byte {
	buf := make([]byte, r.encodedLen())
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	le.PutUint64(buf[4:], r.Seq)
	buf[12] = byte(r.Kind)
	le.PutUint32(buf[16:], uint32(len(r.Path)))
	le.PutUint32(buf[20:], uint32(len(r.Path2)))
	le.PutUint64(buf[24:], uint64(r.Off))
	le.PutUint32(buf[32:], uint32(len(r.Data)))
	off := recordHeader
	off += copy(buf[off:], r.Path)
	off += copy(buf[off:], r.Path2)
	copy(buf[off:], r.Data)
	crc := crc32.NewIEEE()
	crc.Write(buf[:36])
	crc.Write(buf[recordHeader:])
	le.PutUint32(buf[36:], crc.Sum32())
	return buf
}

// referenceSerialize is the reference checkpoint payload, grown by
// append in sorted order: dirCount, dirs..., fileCount, {path,
// content}..., strings length-prefixed.
func referenceSerialize(t *testing.T, st *fstate) []byte {
	t.Helper()
	var b []byte
	putBytes := func(s []byte) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	dirs := make([]string, 0, len(st.dirs))
	for d := range st.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(dirs)))
	for _, d := range dirs {
		putBytes([]byte(d))
	}
	files := make([]string, 0, len(st.files))
	for f := range st.files {
		files = append(files, f)
	}
	sort.Strings(files)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(files)))
	for _, f := range files {
		putBytes([]byte(f))
		if !st.files[f].Read(func(data []byte) { putBytes(data) }) {
			t.Fatalf("reference serialize: %s is borrowed", f)
		}
	}
	return b
}

// referenceCheckpoint is the reference checkpoint image: header, the
// reference payload, zero padding to whole blocks.
func referenceCheckpoint(t *testing.T, st *fstate, gen, seq uint64, bs int) []byte {
	t.Helper()
	payload := referenceSerialize(t, st)
	buf := make([]byte, roundUp(ckptHeader+len(payload), bs))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	le.PutUint64(buf[8:], gen)
	le.PutUint64(buf[16:], seq)
	le.PutUint64(buf[24:], uint64(len(payload)))
	copy(buf[ckptHeader:], payload)
	crc := crc32.NewIEEE()
	crc.Write(buf[0:32])
	crc.Write(payload)
	le.PutUint32(buf[32:], crc.Sum32())
	return buf
}

func roundUp(n, bs int) int { return (n + bs - 1) / bs * bs }

// memDisk is a DiskLike over one preallocated array: a write copies
// into it and allocates nothing, so allocation counts see safefs
// alone, and the array is the volume's image.
type memDisk struct {
	bs   int
	data []byte
}

func newMemDisk(blocks uint64, bs int) *memDisk {
	return &memDisk{bs: bs, data: make([]byte, blocks*uint64(bs))}
}

func (d *memDisk) BlockSize() int { return d.bs }
func (d *memDisk) Blocks() uint64 { return uint64(len(d.data) / d.bs) }
func (d *memDisk) Flush() kbase.Errno {
	return kbase.EOK
}

func (d *memDisk) block(b uint64, n int) []byte {
	if b >= d.Blocks() || n != d.bs {
		return nil
	}
	return d.data[b*uint64(d.bs) : (b+1)*uint64(d.bs)]
}

func (d *memDisk) Read(b uint64, buf []byte) kbase.Errno {
	blk := d.block(b, len(buf))
	if blk == nil {
		return kbase.EINVAL
	}
	copy(buf, blk)
	return kbase.EOK
}

func (d *memDisk) Write(b uint64, data []byte) kbase.Errno {
	blk := d.block(b, len(data))
	if blk == nil {
		return kbase.EINVAL
	}
	copy(blk, data)
	return kbase.EOK
}

// recDisk records every block write made through it.
type recDisk struct {
	*memDisk
	writes []blockWrite
}

type blockWrite struct {
	block uint64
	data  []byte
}

func (d *recDisk) Write(b uint64, data []byte) kbase.Errno {
	d.writes = append(d.writes, blockWrite{b, append([]byte(nil), data...)})
	return d.memDisk.Write(b, data)
}

// mountInst mounts safefs on disk outside any VFS and returns its
// instance.
func mountInst(t *testing.T, disk spec.DiskLike, syncOnCommit bool) *fsInstance {
	t.Helper()
	sb, err := (&FS{SyncOnCommit: syncOnCommit}).Mount(nil,
		vfs.NewMountData(&MountData{Disk: disk, Checker: own.NewChecker(own.PolicyRecord)}))
	if err != kbase.EOK {
		t.Fatalf("mount: %v", err)
	}
	return mustInst(sb)
}

// checkRun asserts that ws is one contiguous run of block writes
// starting at start whose bytes are want.
func checkRun(t *testing.T, what string, ws []blockWrite, start uint64, want []byte, bs int) {
	t.Helper()
	if len(ws)*bs != len(want) {
		t.Fatalf("%s: %d blocks written, want %d", what, len(ws), len(want)/bs)
	}
	for i, w := range ws {
		if w.block != start+uint64(i) {
			t.Fatalf("%s: write %d at block %d, want %d", what, i, w.block, start+uint64(i))
		}
		if !bytes.Equal(w.data, want[i*bs:(i+1)*bs]) {
			t.Fatalf("%s: block %d differs from the reference encoding", what, w.block)
		}
	}
}

// TestOnDiskFormatUnchanged runs a seeded op sequence through a volume
// and compares every log and checkpoint block it writes with the
// reference encodings, padding included: a reused log image must
// leave no byte of an earlier, longer record behind. The sequence is
// checked to contain log wraps that force a checkpoint, a write record
// right after a longer one, and a checkpoint of a state smaller than
// the one before it.
func TestOnDiskFormatUnchanged(t *testing.T) {
	const bs = 512
	disk := &recDisk{memDisk: newMemDisk(256, bs)}
	if err := Format(disk); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	sb, _ := computeLayout(256, bs)
	if len(disk.writes) == 0 || disk.writes[0].block != 0 {
		t.Fatalf("Format wrote no superblock first: %v", disk.writes)
	}
	checkRun(t, "format checkpoint", disk.writes[1:], sb.CkptAStart,
		referenceCheckpoint(t, newFstate(nil), 1, 0, bs), bs)

	inst := mountInst(t, disk, true)
	rng := rand.New(rand.NewSource(1))
	paths := []string{"a", "b", "c", "d/e"}
	sizes := []int{3000, 1500, 200, 7}
	var wraps, shorter, shrunk int
	prevLen, prevCkpt := 0, 0 // the last record if it was a write; the last checkpoint
	for step := 0; step < 1800; step++ {
		var r Record
		// Rare explicit checkpoints, so the log also fills and wraps.
		explicit := step%300 == 299
		switch op := rng.Intn(11); {
		case explicit:
		case op < 2:
			r = Record{Kind: OpCreate, Path: paths[rng.Intn(len(paths))]}
		case op < 3:
			r = Record{Kind: OpMkdir, Path: "d"}
		case op < 8:
			data := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(data)
			r = Record{Kind: OpWrite, Path: paths[rng.Intn(len(paths))], Off: int64(rng.Intn(1000)), Data: data}
		case op < 9:
			r = Record{Kind: OpTruncate, Path: paths[rng.Intn(len(paths))], Off: int64(rng.Intn(800))}
		case op < 10:
			r = Record{Kind: OpUnlink, Path: paths[rng.Intn(len(paths))]}
		default:
			r = Record{Kind: OpRename, Path: paths[rng.Intn(len(paths))], Path2: paths[rng.Intn(len(paths))]}
		}

		inst.nsLock.DownWrite(nil)
		s := inst.store
		gen, posBefore := s.ckptGen+1, s.logPos
		region := sb.CkptAStart
		if gen%2 == 0 {
			region = sb.CkptBStart
		}
		wantCkpt := referenceCheckpoint(t, inst.st, gen, s.seq-1, bs)
		ref := r
		ref.Seq = s.seq
		wantRec := make([]byte, roundUp(ref.encodedLen(), bs))
		copy(wantRec, ref.encode())
		applies := canApply(inst.st, r) == kbase.EOK
		disk.writes = nil
		var err kbase.Errno
		if explicit {
			err = s.checkpoint(inst.st)
		} else {
			err = inst.do(r)
		}
		inst.nsLock.UpWrite(nil)
		if explicit || applies {
			if err != kbase.EOK {
				t.Fatalf("step %d: %v on %+v", step, err, r)
			}
		}

		var ckptW, logW []blockWrite
		for _, w := range disk.writes {
			if w.block >= sb.LogStart {
				logW = append(logW, w)
			} else {
				ckptW = append(ckptW, w)
			}
		}
		what := fmt.Sprintf("step %d (%v %q)", step, r.Kind, r.Path)
		switch {
		case explicit:
			checkRun(t, what+" checkpoint", ckptW, region, wantCkpt, bs)
			if len(logW) != 0 {
				t.Fatalf("%s: checkpoint wrote %d log blocks", what, len(logW))
			}
		case !applies:
			if len(disk.writes) != 0 {
				t.Fatalf("%s: refused op wrote %d blocks", what, len(disk.writes))
			}
			continue
		case posBefore+uint64(len(wantRec)/bs) > sb.LogLen:
			wraps++
			checkRun(t, what+" wrap checkpoint", ckptW, region, wantCkpt, bs)
			checkRun(t, what+" record", logW, sb.LogStart, wantRec, bs)
		default:
			if len(ckptW) != 0 {
				t.Fatalf("%s: %d checkpoint blocks written with room in the log", what, len(ckptW))
			}
			checkRun(t, what+" record", logW, sb.LogStart+posBefore, wantRec, bs)
		}
		if len(ckptW) > 0 {
			if len(wantCkpt) < prevCkpt {
				shrunk++
			}
			prevCkpt = len(wantCkpt)
		}
		switch {
		case r.Kind != OpWrite:
			prevLen = 0
		case ref.encodedLen() < prevLen:
			shorter++
			fallthrough
		default:
			prevLen = ref.encodedLen()
		}
	}
	if wraps == 0 || shorter == 0 || shrunk == 0 {
		t.Fatalf("sequence missed a case: %d wraps, %d shorter records, %d shrunk checkpoints", wraps, shorter, shrunk)
	}
}

// TestAppendAllocatesNothing pins the steady-state log write: once
// the log image has grown to a 4 KiB write record, appending another
// allocates nothing.
func TestAppendAllocatesNothing(t *testing.T) {
	disk := newMemDisk(4096, 512)
	if err := Format(disk); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	s, _, err := openStore(disk, own.NewChecker(own.PolicyRecord), true)
	if err != kbase.EOK {
		t.Fatalf("openStore: %v", err)
	}
	data := make([]byte, 4096)
	var r Record
	allocs := testing.AllocsPerRun(100, func() {
		r = Record{Kind: OpWrite, Path: "f", Off: 4096, Data: data}
		if err := s.append(&r); err != kbase.EOK {
			t.Fatalf("append: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm 4 KiB append: %v allocations, want 0", allocs)
	}
}

// TestCheckpointAllocatesOneImage pins a checkpoint's memory: the
// exact-size image, the two sorted path lists and a small constant.
// The disk copies into preallocated blocks, so no device page counts.
func TestCheckpointAllocatesOneImage(t *testing.T) {
	disk := newMemDisk(4096, 512)
	if err := Format(disk); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	inst := mountInst(t, disk, false)
	const files = 40
	for i := 0; i < files; i++ {
		p := fmt.Sprintf("f%02d", i)
		for _, r := range []Record{{Kind: OpCreate, Path: p}, {Kind: OpWrite, Path: p, Data: make([]byte, 2000)}} {
			if err := inst.do(r); err != kbase.EOK {
				t.Fatalf("%v %s: %v", r.Kind, p, err)
			}
		}
	}
	img, err := inst.store.checkpointImage(inst.st, 1, 0)
	if err != kbase.EOK {
		t.Fatalf("checkpointImage: %v", err)
	}
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := inst.store.checkpoint(inst.st); err != kbase.EOK {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	// 8 KiB covers the allocator rounding the image up to whole pages.
	limit := uint64(len(img)) + 16*(files+1) + 9<<10
	if per > limit {
		t.Fatalf("checkpoint of a %d-byte image allocates %d bytes, want at most %d", len(img), per, limit)
	}
}

// scribbleDisk overwrites victim during the first block write after
// it is armed: a caller changing its buffer while the record carrying
// it is being written.
type scribbleDisk struct {
	spec.DiskLike
	victim []byte
}

func (d *scribbleDisk) Write(b uint64, data []byte) kbase.Errno {
	for i := range d.victim {
		d.victim[i] ^= 0xff
	}
	d.victim = nil
	return d.DiskLike.Write(b, data)
}

// TestWriteReadsCallerBufferOnce: a write reads the caller's buffer
// once, into the log, and the file is updated from what was logged.
// A second read of the buffer after the log write would make the
// live file differ from the file recovered from the log.
func TestWriteReadsCallerBufferOnce(t *testing.T) {
	disk := newMemDisk(256, 512)
	if err := Format(disk); err != kbase.EOK {
		t.Fatalf("Format: %v", err)
	}
	sd := &scribbleDisk{DiskLike: disk}
	v, task := mountSafefs(t, sd, own.NewChecker(own.PolicyRecord), true)
	fd, err := v.Open(task, "/f", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	buf := bytes.Repeat([]byte("fetch-once "), 150)
	sd.victim = buf
	if n, err := v.Pwrite(task, fd, buf, 0); err != kbase.EOK || n != len(buf) {
		t.Fatalf("Pwrite = (%d, %v)", n, err)
	}
	if sd.victim != nil {
		t.Fatal("the write never reached the disk")
	}
	live := make([]byte, len(buf))
	if n, err := v.Pread(task, fd, live, 0); err != kbase.EOK || n != len(buf) {
		t.Fatalf("live Pread = (%d, %v)", n, err)
	}
	// Remount from the disk as it stands, without an unmount's
	// checkpoint: the file comes back from the log record.
	v2, task2 := mountSafefs(t, disk, own.NewChecker(own.PolicyRecord), true)
	fd2, err := v2.Open(task2, "/f", vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("reopen: %v", err)
	}
	logged := make([]byte, len(buf))
	if n, err := v2.Pread(task2, fd2, logged, 0); err != kbase.EOK || n != len(buf) {
		t.Fatalf("recovered Pread = (%d, %v)", n, err)
	}
	if !bytes.Equal(live, logged) {
		t.Fatalf("live file differs from its log record:\nlive   %.40q\nlogged %.40q", live, logged)
	}
}

// TestHostileSuperblockRefused mounts images whose superblock or
// checkpoint header was patched to lie about the layout: each must be
// refused with EUCLEAN, with no panic and no oops. The first is the
// crasher that once panicked in makeslice: region B on the superblock
// (which shares the checkpoint magic) and a region length beyond the
// device.
func TestHostileSuperblockRefused(t *testing.T) {
	const bs = 512
	sb, _ := computeLayout(256, bs)
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cases := []struct {
		name string
		at   uint64 // byte offset into the image
		b    []byte
	}{
		{"regions off the device", 24, append(append(u64(1<<50), u64(1<<60)...), u64(0)...)},
		{"region B on the superblock", 40, u64(0)},
		{"log past the end", 56, u64(sb.LogLen + 1)},
		{"block size lies", 16, []byte{0, 1, 0, 0}},
		{"checkpoint length wraps", sb.CkptAStart*bs + 24, u64(^uint64(0))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			disk := newMemDisk(256, bs)
			if err := Format(disk); err != kbase.EOK {
				t.Fatalf("Format: %v", err)
			}
			copy(disk.data[c.at:], c.b)
			_, err := (&FS{}).Mount(nil, vfs.NewMountData(&MountData{Disk: disk}))
			if err != kbase.EUCLEAN {
				t.Fatalf("mount: %v, want EUCLEAN", err)
			}
			if n := rec.Count(""); n != 0 {
				t.Fatalf("%d oopses: %v", n, rec.Events())
			}
		})
	}
}
