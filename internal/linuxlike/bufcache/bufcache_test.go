package bufcache

import (
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
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
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
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
	if err := c.SyncDirty(); err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	if c.DirtyCount() != 0 || bh.Dirty() {
		t.Fatalf("dirty state not cleared")
	}
	bh.Put()

	// Crash; data must be durable.
	c.Device().CrashApplyNone()
	c.Invalidate()
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
	before := c.Device().Stats()
	if err := c.SyncBlocksCtx(nil, []uint64{3, 5, 6, 7}); err != kbase.EOK {
		t.Fatalf("SyncBlocksCtx: %v", err)
	}
	after := c.Device().Stats()
	if w, f := after.Writes-before.Writes, after.Flushes-before.Flushes; w != 2 || f != 1 {
		t.Fatalf("SyncBlocksCtx issued %d writes and %d flushes, want 2 and 1", w, f)
	}
	if c.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d, want block 4 alone", c.DirtyCount())
	}
	c.Device().CrashApplyNone()
	c.Invalidate()
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
	c.Invalidate()
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
	if err := c.WriteBuffer(bh); err != kbase.EINVAL {
		t.Fatalf("WriteBuffer of unmapped: %v", err)
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
	if got := c.Stats().OverReleases; got != 1 {
		t.Fatalf("Stats().OverReleases = %d", got)
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
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
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
	c.SyncDirty()
	c.Invalidate()
	bh2, _ := c.Bread(6)
	if bh2.Data[0] != 0 {
		t.Fatalf("forgotten write reached disk")
	}
}

func TestGetBlkBounds(t *testing.T) {
	c := testCache(t, 0)
	if _, err := c.GetBlk(64); err != kbase.EINVAL {
		t.Fatalf("out-of-range GetBlk: %v", err)
	}
}
