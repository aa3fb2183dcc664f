package bufcache

import (
	"bytes"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/safety/gate"
)

func testCache(t *testing.T, maxBufs int) *Cache {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 64, Rng: kbase.NewRng(3)})
	return NewCache(dev, maxBufs)
}

func installRecorder(t *testing.T) *kbase.OopsRecorder {
	t.Helper()
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	t.Cleanup(func() { kbase.InstallRecorder(prev) })
	return rec
}

func TestBreadReadsFromDevice(t *testing.T) {
	c := testCache(t, 0)
	want := make([]byte, 64)
	want[0] = 0x5A
	c.Device().Write(7, want)
	c.Device().Flush()

	bh, err := c.Bread(7)
	if err != kbase.EOK {
		t.Fatalf("Bread: %v", err)
	}
	defer bh.Put()
	if bh.Data[0] != 0x5A {
		t.Fatalf("Bread data = %#x", bh.Data[0])
	}
	if !bh.Uptodate() || !bh.TestFlag(BHMapped) {
		t.Fatalf("flags after Bread: %s", FlagString(bh.Flags()))
	}
}

func TestCacheHitReturnsSameBuffer(t *testing.T) {
	c := testCache(t, 0)
	a, _ := c.Bread(3)
	b, _ := c.Bread(3)
	if a != b {
		t.Fatalf("same block yielded distinct buffers")
	}
	if a.Refcount() != 2 {
		t.Fatalf("refcount = %d, want 2", a.Refcount())
	}
	a.Put()
	b.Put()
	if h, m := ktrace.Read(c.CollectMetrics, "hits"), ktrace.Read(c.CollectMetrics, "misses"); h != 1 || m != 1 {
		t.Fatalf("hits = %d, misses = %d, want 1 and 1", h, m)
	}
}

func TestDirtyWritebackRoundTrip(t *testing.T) {
	c := testCache(t, 0)
	bh, _ := c.Bread(5)
	bh.Data[0] = 0xEE
	bh.MarkDirty()
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", c.DirtyCount())
	}
	if err := c.SyncDirtyCtx(nil); err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	if c.DirtyCount() != 0 || bh.Dirty() {
		t.Fatalf("dirty state not cleared")
	}
	bh.Put()

	// Crash; data must be durable.
	c.Device().CrashApplyNone()
	c = NewCache(c.Device(), 0)
	bh2, _ := c.Bread(5)
	if bh2.Data[0] != 0xEE {
		t.Fatalf("written data lost: %#x", bh2.Data[0])
	}
}

// TestSyncBlocksWritesOnlyListed: SyncBlocksCtx writes the dirty
// buffers among the listed blocks, skips clean and uncached ones,
// leaves every other dirty buffer alone and flushes once.
func TestSyncBlocksWritesOnlyListed(t *testing.T) {
	c := testCache(t, 0)
	for _, block := range []uint64{3, 4, 5} {
		bh, _ := c.Bread(block)
		bh.Data[0] = byte(block)
		bh.MarkDirty()
		bh.Put()
	}
	clean, _ := c.Bread(6)
	clean.Put()
	dev := c.Device().CollectMetrics
	writes, flushes := ktrace.Read(dev, "writes"), ktrace.Read(dev, "flushes")
	if err := c.SyncBlocksCtx(nil, []uint64{3, 5, 6, 7}); err != kbase.EOK {
		t.Fatalf("SyncBlocksCtx: %v", err)
	}
	if w, f := ktrace.Read(dev, "writes")-writes, ktrace.Read(dev, "flushes")-flushes; w != 2 || f != 1 {
		t.Fatalf("SyncBlocksCtx issued %d writes and %d flushes, want 2 and 1", w, f)
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d, want block 4 alone", c.DirtyCount())
	}
	c.Device().CrashApplyNone()
	c = NewCache(c.Device(), 0)
	for block, want := range map[uint64]byte{3: 3, 4: 0, 5: 5} {
		bh, _ := c.Bread(block)
		if bh.Data[0] != want {
			t.Errorf("block %d after crash = %#x, want %#x", block, bh.Data[0], want)
		}
		bh.Put()
	}
}

// TestDirtyPressure: only a bounded cache at least half full of dirty
// buffers reports pressure.
func TestDirtyPressure(t *testing.T) {
	for _, tc := range []struct {
		maxBufs, dirty int
		want           bool
	}{{0, 6, false}, {8, 3, false}, {8, 4, true}} {
		c := testCache(t, tc.maxBufs)
		for block := 0; block < tc.dirty; block++ {
			bh, _ := c.Bread(uint64(block))
			bh.MarkDirty()
			bh.Put()
		}
		if got := c.DirtyPressure(); got != tc.want {
			t.Errorf("max %d, %d dirty: DirtyPressure = %v, want %v", tc.maxBufs, tc.dirty, got, tc.want)
		}
	}
}

func TestUnflushedDirtyLostOnCrash(t *testing.T) {
	c := testCache(t, 0)
	bh, _ := c.Bread(9)
	bh.Data[0] = 0x77
	bh.MarkDirty()
	bh.Put()
	c.Device().CrashApplyNone()
	c = NewCache(c.Device(), 0)
	bh2, _ := c.Bread(9)
	if bh2.Data[0] != 0 {
		t.Fatalf("dirty-but-unsynced data survived crash")
	}
}

func TestWriteUnmappedBufferOopses(t *testing.T) {
	rec := installRecorder(t)
	c := testCache(t, 0)
	bh, _ := c.GetBlk(2) // never read, never mapped
	bh.MarkDirty()
	if err := c.SyncBlocksCtx(nil, []uint64{2}); err != kbase.EINVAL {
		t.Fatalf("SyncBlocksCtx of unmapped: %v", err)
	}
	if rec.Count(kbase.OopsSemantic) != 1 {
		t.Fatalf("semantic oops count = %d", rec.Count(kbase.OopsSemantic))
	}
}

func TestBrelseOverRelease(t *testing.T) {
	rec := installRecorder(t)
	c := testCache(t, 0)
	bh, _ := c.GetBlk(1)
	bh.Put()
	bh.Put() // over-release
	if rec.Count(kbase.OopsGeneric) != 1 {
		t.Fatalf("over-release not reported")
	}
}

func TestPutReturnsTypedOverReleaseError(t *testing.T) {
	rec := installRecorder(t)
	c := testCache(t, 0)
	bh, _ := c.GetBlk(3)
	if err := bh.Put(); err != nil {
		t.Fatalf("balanced Put returned %v", err)
	}
	err := bh.Put() // over-release
	ore, ok := err.(*OverReleaseError)
	if !ok {
		t.Fatalf("over-release Put returned %T, want *OverReleaseError", err)
	}
	if ore.Block != 3 || ore.Refcount != 0 {
		t.Fatalf("OverReleaseError = %+v", ore)
	}
	if bh.Refcount() != 0 {
		t.Fatalf("refcount corrupted to %d by rejected Put", bh.Refcount())
	}
	if got := c.overReleases.Load(); got != 1 {
		t.Fatalf("over-releases = %d", got)
	}
	if rec.Count(kbase.OopsGeneric) != 1 {
		t.Fatalf("oops count = %d", rec.Count(kbase.OopsGeneric))
	}
}

func TestLRUEviction(t *testing.T) {
	c := testCache(t, 4)
	var held []*BufferHead
	for i := uint64(0); i < 4; i++ {
		bh, err := c.GetBlk(i)
		if err != kbase.EOK {
			t.Fatalf("GetBlk(%d): %v", i, err)
		}
		held = append(held, bh)
	}
	// Cache full of referenced buffers: no room.
	if _, err := c.GetBlk(10); err != kbase.ENOBUFS {
		t.Fatalf("GetBlk on full cache: %v", err)
	}
	// Release one; eviction should succeed.
	held[0].Put()
	if _, err := c.GetBlk(10); err != kbase.EOK {
		t.Fatalf("GetBlk after release: %v", err)
	}
	if got := ktrace.Read(c.CollectMetrics, "evictions"); got != 1 {
		t.Fatalf("evictions = %d", got)
	}
}

func TestDirtyBufferNotEvicted(t *testing.T) {
	c := testCache(t, 2)
	a, _ := c.Bread(0)
	a.MarkDirty()
	a.Put()
	b, _ := c.GetBlk(1)
	b.Put()
	// Only the clean buffer may be evicted.
	if _, err := c.GetBlk(2); err != kbase.EOK {
		t.Fatalf("GetBlk: %v", err)
	}
	if sl := c.slot(0, false); sl == nil || sl.Load() != a {
		t.Fatalf("dirty buffer was evicted")
	}
}

func TestBreadReportsIOFailure(t *testing.T) {
	c := testCache(t, 0)
	c.Device().FailNextReads(1)
	bh, err := c.Bread(4)
	if err != kbase.EIO {
		t.Fatalf("Bread on failing device = (%v, %v), want EIO", bh, err)
	}
	ok, err := c.Bread(4)
	if err != kbase.EOK {
		t.Fatalf("Bread failed on healthy device: %v", err)
	}
	ok.Put()
}

func TestForget(t *testing.T) {
	c := testCache(t, 0)
	bh, _ := c.Bread(6)
	bh.Data[0] = 0x42
	bh.MarkDirty()
	c.Forget(bh)
	if c.DirtyCount() != 0 || bh.Dirty() {
		t.Fatalf("Forget left buffer dirty")
	}
	bh.Put()
	c.SyncDirtyCtx(nil)
	c = NewCache(c.Device(), 0)
	bh2, _ := c.Bread(6)
	if bh2.Data[0] != 0 {
		t.Fatalf("forgotten write reached disk")
	}
}

// TestInvalidateKeepsJournalHeld: a buffer-cache restart drops clean
// buffers and dirty data, but keeps what the journal holds — a buffer
// joined to the running transaction and dirty metadata awaiting its
// checkpoint — as the same heads, still dirty.
func TestInvalidateKeepsJournalHeld(t *testing.T) {
	c := testCache(t, 0)
	for block := uint64(1); block <= 4; block++ {
		bh, _ := c.Bread(block)
		bh.Data[0] = byte(block)
		bh.Put()
	}
	joined, _ := c.Bread(1)
	joined.SetJournalSeq(7)
	meta, _ := c.Bread(2)
	meta.SetFlag(BHMeta)
	meta.MarkDirty()
	data, _ := c.Bread(3)
	data.MarkDirty()
	for _, bh := range []*BufferHead{joined, meta, data} {
		bh.Put()
	}

	c.Invalidate()
	if c.Cached() != 2 || c.DirtyCount() != 1 {
		t.Fatalf("after Invalidate: %d cached, %d dirty; want 2 and 1", c.Cached(), c.DirtyCount())
	}
	for block, want := range map[uint64]*BufferHead{1: joined, 2: meta} {
		bh, _ := c.Bread(block)
		if bh != want || bh.Data[0] != byte(block) {
			t.Errorf("block %d: journal-held head not kept", block)
		}
		bh.Put()
	}
	if !meta.Dirty() {
		t.Error("kept metadata lost its dirty bit")
	}
	for _, block := range []uint64{3, 4} {
		bh, _ := c.Bread(block)
		if bh.Data[0] != 0 {
			t.Errorf("block %d = %#x after Invalidate, want the device's 0", block, bh.Data[0])
		}
		bh.Put()
	}
	if err := c.SyncDirtyCtx(nil); err != kbase.EOK {
		t.Fatalf("SyncDirtyCtx: %v", err)
	}
	got := make([]byte, c.Device().BlockSize())
	if c.Device().Read(2, got); got[0] != 2 {
		t.Fatalf("kept metadata not written home: %#x", got[0])
	}
}

func TestGetBlkBounds(t *testing.T) {
	c := testCache(t, 0)
	if _, err := c.GetBlk(64); err != kbase.EINVAL {
		t.Fatalf("out-of-range GetBlk: %v", err)
	}
}

// gatedCache returns a cache behind a containment gate with block 7
// cached.
func gatedCache(tb testing.TB) (*Cache, *kbase.Task) {
	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 512, Rng: kbase.NewRng(3)})
	c := NewCache(dev, 0)
	c.SetGate(gate.New("buf", nil))
	task := kbase.NewTask()
	bh, err := c.BreadCtx(task, 7)
	if err != kbase.EOK {
		tb.Fatalf("BreadCtx: %v", err)
	}
	bh.Put()
	return c, task
}

// TestCachedBreadThroughGateAllocFree pins a cache hit through the
// gate: the crossed closure, its wrapper and the returned buffer
// pointer all stay on the stack.
func TestCachedBreadThroughGateAllocFree(t *testing.T) {
	c, task := gatedCache(t)
	if allocs := testing.AllocsPerRun(200, func() {
		bh, err := c.BreadCtx(task, 7)
		if err != kbase.EOK {
			t.Fatalf("BreadCtx: %v", err)
		}
		bh.Put()
	}); allocs != 0 {
		t.Fatalf("cached BreadCtx+Put through the gate: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkBreadThroughGate measures a cached BreadCtx + Put through
// the buffer-cache gate.
func BenchmarkBreadThroughGate(b *testing.B) {
	c, task := gatedCache(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bh, _ := c.BreadCtx(task, 7)
		bh.Put()
	}
}

// TestCopyOutCopyInRange moves byte ranges across blocks, holes and
// partial first and last blocks, checks the reads, fills and dirtying
// against the per-block contract, and that no reference stays taken.
func TestCopyOutCopyInRange(t *testing.T) {
	c := testCache(t, 0)
	task := kbase.NewTask()
	dev := c.Device()
	img := func(b uint64) []byte {
		p := make([]byte, 64)
		for i := range p {
			p[i] = byte(b*7 + uint64(i))
		}
		return p
	}
	for _, b := range []uint64{3, 5, 6, 7} {
		dev.Write(b, img(b))
	}
	dev.Flush()

	// Block 3 from byte 10, a hole, block 5 up to byte 59.
	buf := make([]byte, 54+64+59)
	for i := range buf {
		buf[i] = 0xEE
	}
	n, err := c.CopyOut(task, []uint64{3, 0, 5}, 10, buf)
	if err != kbase.EOK || n != len(buf) {
		t.Fatalf("CopyOut = %d, %v; want %d, EOK", n, err, len(buf))
	}
	want := append(append(img(3)[10:], make([]byte, 64)...), img(5)[:59]...)
	if !bytes.Equal(buf, want) {
		t.Fatalf("CopyOut bytes differ:\n got %x\nwant %x", buf, want)
	}
	if m := ktrace.Read(c.CollectMetrics, "misses"); m != 2 {
		t.Fatalf("misses = %d, want 2 (the hole reads nothing)", m)
	}

	// Block 6 whole (no read), block 7 up to byte 20 (read first).
	reads := ktrace.Read(dev.CollectMetrics, "reads")
	data := bytes.Repeat([]byte{0xAB}, 64+20)
	if n, err := c.CopyIn(task, []uint64{6, 7}, 0, data); err != kbase.EOK || n != len(data) {
		t.Fatalf("CopyIn = %d, %v; want %d, EOK", n, err, len(data))
	}
	if r := ktrace.Read(dev.CollectMetrics, "reads") - reads; r != 1 {
		t.Fatalf("CopyIn read %d blocks from the device, want 1", r)
	}
	if d := c.DirtyCount(); d != 2 {
		t.Fatalf("dirty = %d, want 2", d)
	}
	if err := c.SyncDirtyCtx(task); err != kbase.EOK {
		t.Fatalf("SyncDirtyCtx: %v", err)
	}
	got := make([]byte, 64)
	dev.Read(7, got)
	if want := append(bytes.Repeat([]byte{0xAB}, 20), img(7)[20:]...); !bytes.Equal(got, want) {
		t.Fatalf("block 7 after CopyIn = %x, want %x", got, want)
	}

	for _, b := range []uint64{3, 5, 6, 7} {
		bh, _ := c.GetBlk(b)
		if rc := bh.Refcount(); rc != 1 {
			t.Fatalf("block %d refcount %d after the copies, want 0", b, rc-1)
		}
		bh.Put()
	}

	if _, err := c.CopyIn(task, []uint64{6, 0}, 0, data); err != kbase.EINVAL {
		t.Fatalf("CopyIn over a hole: %v, want EINVAL", err)
	}
	if n, err := c.CopyOut(task, []uint64{3}, 10, make([]byte, 64)); err != kbase.EINVAL || n != 54 {
		t.Fatalf("CopyOut past its blocks = %d, %v; want 54, EINVAL", n, err)
	}
	if _, err := c.CopyOut(task, []uint64{3}, 64, make([]byte, 1)); err != kbase.EINVAL {
		t.Fatalf("CopyOut from an offset outside the block: %v, want EINVAL", err)
	}
}

// TestRangeCopyCrossesOnce pins the point of the range entries: a
// cached nine-block CopyOut or CopyIn is one gate crossing, and it
// allocates nothing.
func TestRangeCopyCrossesOnce(t *testing.T) {
	c, task := gatedCache(t)
	g := gate.New("buf", nil)
	c.SetGate(g)
	blocks := []uint64{7, 8, 9, 10, 11, 12, 13, 14, 15}
	buf := make([]byte, 4096)
	if _, err := c.CopyOut(task, blocks, 100, buf); err != kbase.EOK {
		t.Fatalf("CopyOut: %v", err)
	}
	entered := ktrace.Read(g.CollectMetrics, "entered")
	copyOut := func() {
		if _, err := c.CopyOut(task, blocks, 100, buf); err != kbase.EOK {
			t.Fatalf("CopyOut: %v", err)
		}
	}
	copyIn := func() {
		if _, err := c.CopyIn(task, blocks, 100, buf); err != kbase.EOK {
			t.Fatalf("CopyIn: %v", err)
		}
	}
	copyOut()
	copyIn()
	if n := ktrace.Read(g.CollectMetrics, "entered") - entered; n != 2 {
		t.Fatalf("a CopyOut and a CopyIn of 9 blocks crossed the gate %d times, want 2", n)
	}
	if allocs := testing.AllocsPerRun(200, copyOut); allocs != 0 {
		t.Errorf("cached CopyOut through the gate: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, copyIn); allocs != 0 {
		t.Errorf("cached CopyIn through the gate: %.1f allocs/op, want 0", allocs)
	}
}

// TestSyncBlocksAllocsFlatInBlocks pins the fsync writeback: writing
// back eight dirty blocks allocates no more than writing back one. The
// kio batch is reused, and each block's copy lands in a device page a
// flush recycled.
func TestSyncBlocksAllocsFlatInBlocks(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1, 8} {
		dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 512, Rng: kbase.NewRng(3)})
		c := NewCache(dev, 0)
		task := kbase.NewTask()
		blocks := make([]uint64, n)
		for i := range blocks {
			blocks[i] = 10 + uint64(i)
		}
		data := make([]byte, n*dev.BlockSize())
		fsync := func() {
			data[0]++
			if _, err := c.CopyIn(task, blocks, 0, data); err != kbase.EOK {
				t.Fatalf("CopyIn: %v", err)
			}
			if err := c.SyncBlocksCtx(task, blocks); err != kbase.EOK {
				t.Fatalf("SyncBlocksCtx: %v", err)
			}
		}
		fsync() // every block gets a durable image for the next flush to replace
		allocs[n] = testing.AllocsPerRun(50, fsync)
	}
	t.Logf("allocs per fsync writeback: %v for 1 block, %v for 8", allocs[1], allocs[8])
	if allocs[8] > allocs[1] {
		t.Fatalf("an 8-block writeback allocates %v, a 1-block one %v: writeback allocates per block", allocs[8], allocs[1])
	}
}
