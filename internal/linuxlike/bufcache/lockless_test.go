package bufcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// TestLocklessHitRacesEviction races lockless hits against eviction in
// a bounded cache: 8 buffers over 64 blocks, four goroutines. Blocks
// 1..31 hold fixed contents and every goroutine reads them, so misses
// on one block race each other and hits on it. Blocks 32..63 are split
// between the goroutines, each of which reads, partly or wholly
// overwrites and writes back its own, checking every read against its
// model of the block. Each goroutine holds at most one buffer or one
// dirty block at a time, so the cache never fills with unevictable
// buffers, and nearly every miss evicts. While a goroutine holds a
// buffer, the table must map its block to that buffer: a second live
// head for one block, or a hit that took a buffer eviction had claimed,
// shows here or as an over-release oops when the stale buffer is put.
//
// The capacity bound is checked too: it is exact, so misses in two
// shards cannot both take the last free place.
func TestLocklessHitRacesEviction(t *testing.T) {
	const (
		workers = 4
		shared  = 32
		ops     = 2000
	)
	rec := installRecorder(t)
	c := testCache(t, 8)
	bs := c.Device().BlockSize()
	fixed := func(block uint64) []byte { return bytes.Repeat([]byte{byte(block) + 1}, bs) }
	for block := uint64(0); block < shared; block++ {
		c.Device().Write(block, fixed(block))
	}
	c.Device().Flush()

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			own := make(map[uint64][]byte)
			for block := uint64(shared + w); block < c.Device().Blocks(); block += workers {
				own[block] = make([]byte, bs) // the device starts zeroed
			}
			owned := make([]uint64, 0, len(own))
			for block := range own {
				owned = append(owned, block)
			}
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Sprintf(format, args...):
				default:
				}
			}
			buf := make([]byte, bs)
			for i := 0; i < ops; i++ {
				block := uint64(1 + rng.Intn(shared-1)) // block 0 is CopyOut's hole
				want := fixed(block)
				if rng.Intn(2) == 0 {
					block = owned[rng.Intn(len(owned))]
					want = own[block]
				}
				switch op := rng.Intn(4); {
				case op == 0 && block >= shared: // overwrite part or all, then write back
					off, data := 0, bytes.Repeat([]byte{byte(i)}, bs)
					if rng.Intn(2) == 0 { // a partial overwrite reads the block first
						off = rng.Intn(bs)
						data = data[:1+rng.Intn(bs-off)]
					}
					if n, err := c.CopyIn(nil, []uint64{block}, off, data); err != kbase.EOK || n != len(data) {
						fail("CopyIn(%d): %d, %v", block, n, err)
						return
					}
					copy(want[off:], data)
					if err := c.SyncBlocksCtx(nil, []uint64{block}); err != kbase.EOK {
						fail("SyncBlocks(%d): %v", block, err)
						return
					}
				case op == 1:
					if n, err := c.CopyOut(nil, []uint64{block}, 0, buf); err != kbase.EOK || n != bs {
						fail("CopyOut(%d): %d, %v", block, n, err)
						return
					}
					if !bytes.Equal(buf, want) {
						fail("CopyOut(%d) read %x, model %x", block, buf[:4], want[:4])
						return
					}
				default:
					bh, err := c.BreadCtx(nil, block)
					if err != kbase.EOK {
						fail("BreadCtx(%d): %v", block, err)
						return
					}
					if sl := c.slot(block, false); sl == nil || sl.Load() != bh {
						fail("block %d: held head %p is not the table's", block, bh)
					}
					if !bytes.Equal(bh.Data, want) {
						fail("BreadCtx(%d) read %x, model %x", block, bh.Data[:4], want[:4])
					}
					if err := bh.Put(); err != nil {
						fail("Put(%d): %v", block, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := ktrace.Read(c.CollectMetrics, "evictions"); got == 0 {
		t.Error("no eviction ran: the race was not exercised")
	}
	if got := ktrace.Read(c.CollectMetrics, "over_releases"); got != 0 {
		t.Errorf("over_releases = %d", got)
	}
	if n := len(rec.Events()); n != 0 {
		t.Errorf("%d oopses: %v", n, rec.Events())
	}
	if c.Cached() > 8 {
		t.Errorf("cached = %d, capacity 8", c.Cached())
	}
}

// TestEvictionSecondChance: eviction passes over a buffer hit since
// the last scan, clearing its referenced bit, and evicts the oldest
// unreferenced one instead; the next scan finds the bit clear and
// evicts it. Blocks 0, 16, 32 and 48 share shard 0 of a two-buffer
// cache.
func TestEvictionSecondChance(t *testing.T) {
	c := testCache(t, 2)
	get := func(block uint64) *BufferHead {
		t.Helper()
		bh, err := c.Bread(block)
		if err != kbase.EOK {
			t.Fatalf("Bread(%d): %v", block, err)
		}
		bh.Put()
		return bh
	}
	cached := func(block uint64) *BufferHead {
		if sl := c.slot(block, false); sl != nil {
			return sl.Load()
		}
		return nil
	}
	old := get(0) // the oldest buffer, at the LRU tail
	get(16)
	if get(0) != old { // a hit: referenced
		t.Fatal("a hit returned a new head")
	}
	get(32)
	if cached(0) != old || cached(16) != nil {
		t.Fatalf("first scan: block 0 cached %v, block 16 cached %v; want the referenced block 0 kept and 16 evicted",
			cached(0) != nil, cached(16) != nil)
	}
	if old.Refcount() != 0 {
		t.Fatalf("kept buffer refcount = %d", old.Refcount())
	}
	get(48)
	if cached(0) != nil || cached(32) == nil {
		t.Fatal("second scan: block 0, whose bit the first scan cleared, was not the one evicted")
	}
	if old.Refcount() != -1 {
		t.Fatalf("evicted buffer refcount = %d, want the -1 claim", old.Refcount())
	}
	if got := ktrace.Read(c.CollectMetrics, "evictions"); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

// TestEvictionReclaimsReferencedBuffers: a miss in a full cache whose
// buffers are all clean, unheld and referenced must still evict one.
// The scan clears a bit and goes round again, so one referenced buffer
// alone in its shard, or two in one shard, cannot make it fail with
// ENOBUFS. Blocks 1 and 2 sit alone in their shards; 0 and 16 share
// shard 0.
func TestEvictionReclaimsReferencedBuffers(t *testing.T) {
	for _, blocks := range [][]uint64{{1, 2}, {0, 16}} {
		c := testCache(t, len(blocks))
		for range 2 { // the second read of each block is a hit
			for _, block := range blocks {
				bh, err := c.Bread(block)
				if err != kbase.EOK {
					t.Fatalf("Bread(%d): %v", block, err)
				}
				bh.Put()
			}
		}
		bh, err := c.Bread(32)
		if err != kbase.EOK {
			t.Fatalf("blocks %v cached and referenced: Bread(32): %v", blocks, err)
		}
		bh.Put()
		if got := ktrace.Read(c.CollectMetrics, "evictions"); got != 1 {
			t.Fatalf("blocks %v: evictions = %d, want 1", blocks, got)
		}
	}
}
