package bufcache

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
)

func asyncCache(t *testing.T) (*Cache, *kio.Engine) {
	t.Helper()
	c := testCache(t, 0)
	return c, c.Engine()
}

func dirtyBlock(t *testing.T, c *Cache, block uint64, fill byte) {
	t.Helper()
	bh, err := c.Bread(block)
	if err != kbase.EOK {
		t.Fatalf("Bread(%d): %v", block, err)
	}
	for i := range bh.Data {
		bh.Data[i] = fill
	}
	bh.MarkDirty()
	bh.Put()
}

func TestSyncDirtyAsyncWritesBack(t *testing.T) {
	c, e := asyncCache(t)
	for i := uint64(0); i < 12; i++ {
		dirtyBlock(t, c, i, byte(0x10+i))
	}
	if err := c.SyncDirty(); err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Fatalf("dirty count after sync = %d", n)
	}
	// Every buffer is clean and marked written.
	for i := uint64(0); i < 12; i++ {
		bh, _ := c.Bread(i)
		if bh.TestFlag(BHDirty) || !bh.TestFlag(BHReq) {
			t.Fatalf("block %d flags after sync: %s", i, FlagString(bh.Flags()))
		}
		bh.Put()
	}
	// Durable: the barrier at the end of the async sync flushed.
	c.Device().CrashApplyNone()
	raw := make([]byte, 64)
	for i := uint64(0); i < 12; i++ {
		c.Device().Read(i, raw)
		if raw[0] != byte(0x10+i) {
			t.Fatalf("block %d lost after crash: %#x", i, raw[0])
		}
	}
	if st := e.Stats(); st.Submitted == 0 || st.Batches == 0 {
		t.Fatalf("writeback bypassed the engine: %+v", st)
	}
}

func TestSyncDirtyAsyncWriteFault(t *testing.T) {
	c, _ := asyncCache(t)
	dirtyBlock(t, c, 3, 0xAA)
	dirtyBlock(t, c, 4, 0xBB)
	c.Device().MarkBad(4)
	err := c.SyncDirty()
	if err == kbase.EOK {
		t.Fatal("SyncDirty succeeded with a bad block queued")
	}
	bh3, _ := c.Bread(3)
	if bh3.TestFlag(BHDirty) {
		t.Fatalf("healthy block stayed dirty: %s", FlagString(bh3.Flags()))
	}
	bh3.Put()
	bh4, _ := c.GetBlk(4)
	if !bh4.TestFlag(BHWriteEIO) {
		t.Fatalf("failed block missing BHWriteEIO: %s", FlagString(bh4.Flags()))
	}
	bh4.Put()
}

// TestSyncDirtyAsyncMatchesSync checks the durable image after a kio
// writeback and a crash is the one a synchronous write-and-flush of
// every dirty buffer leaves: each dirty block with its payload,
// everything else zero.
func TestSyncDirtyAsyncMatchesSync(t *testing.T) {
	c, _ := asyncCache(t)
	want := make(map[uint64]byte)
	for i := uint64(0); i < 8; i++ {
		dirtyBlock(t, c, i*3, byte(i+1))
		want[i*3] = byte(i + 1)
	}
	if err := c.SyncDirty(); err != kbase.EOK {
		t.Fatalf("SyncDirty: %v", err)
	}
	c.Device().CrashApplyNone()
	raw := make([]byte, 64)
	for b := uint64(0); b < 64; b++ {
		c.Device().Read(b, raw)
		for i, got := range raw {
			if got != want[b] {
				t.Fatalf("block %d byte %d = %#x after crash, want %#x", b, i, got, want[b])
			}
		}
	}
}
