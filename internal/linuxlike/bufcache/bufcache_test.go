package bufcache

import (
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
	s := c.shard(0)
	s.mu.Lock()
	_, dirtyStill := s.buffers[0]
	s.mu.Unlock()
	if !dirtyStill {
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
