package blockdev

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"safelinux/internal/linuxlike/kbase"
)

func testDev(blocks uint64) *Device {
	return New(Config{Blocks: blocks, BlockSize: 64, Rng: kbase.NewRng(7)})
}

func blockOf(d *Device, fill byte) []byte {
	b := make([]byte, d.BlockSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestWriteReadThroughCache(t *testing.T) {
	d := testDev(8)
	want := blockOf(d, 0xAB)
	if e := d.Write(3, want); e != kbase.EOK {
		t.Fatalf("Write: %v", e)
	}
	got := make([]byte, d.BlockSize())
	if e := d.Read(3, got); e != kbase.EOK {
		t.Fatalf("Read: %v", e)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read-through-cache mismatch")
	}
	if d.PendingWrites() != 1 {
		t.Fatalf("PendingWrites = %d, want 1", d.PendingWrites())
	}
}

func TestFlushMakesDurable(t *testing.T) {
	d := testDev(8)
	want := blockOf(d, 0x11)
	d.Write(1, want)
	d.Flush()
	d.CrashApplyNone() // crash after flush must not lose the write
	got := make([]byte, d.BlockSize())
	d.Read(1, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("flushed write lost after crash")
	}
}

func TestCrashApplyNoneDropsUnflushed(t *testing.T) {
	d := testDev(8)
	d.Write(1, blockOf(d, 0x22))
	d.CrashApplyNone()
	got := make([]byte, d.BlockSize())
	d.Read(1, got)
	if !bytes.Equal(got, make([]byte, d.BlockSize())) {
		t.Fatalf("unflushed write survived CrashApplyNone")
	}
	if got := d.dropped.Load(); got != 1 {
		t.Fatalf("dropped writes = %d", got)
	}
}

func TestLastWriteWinsInCache(t *testing.T) {
	d := testDev(8)
	d.Write(2, blockOf(d, 0x01))
	d.Write(2, blockOf(d, 0x02))
	got := make([]byte, d.BlockSize())
	d.Read(2, got)
	if got[0] != 0x02 {
		t.Fatalf("cache served stale write: %#x", got[0])
	}
	d.Flush()
	d.Read(2, got)
	if got[0] != 0x02 {
		t.Fatalf("durable image has stale write: %#x", got[0])
	}
}

func TestBoundsAndSizeValidation(t *testing.T) {
	d := testDev(4)
	if e := d.Read(4, make([]byte, d.BlockSize())); e != kbase.EINVAL {
		t.Fatalf("out-of-range read: %v", e)
	}
	if e := d.Write(4, blockOf(d, 1)); e != kbase.EINVAL {
		t.Fatalf("out-of-range write: %v", e)
	}
	if e := d.Read(0, make([]byte, 3)); e != kbase.EINVAL {
		t.Fatalf("short-buffer read: %v", e)
	}
	if e := d.Write(0, make([]byte, 3)); e != kbase.EINVAL {
		t.Fatalf("short-buffer write: %v", e)
	}
}

func TestFaultInjection(t *testing.T) {
	d := testDev(4)
	d.FailNextReads(1)
	if e := d.Read(0, make([]byte, d.BlockSize())); e != kbase.EIO {
		t.Fatalf("injected read fault: %v", e)
	}
	if e := d.Read(0, make([]byte, d.BlockSize())); e != kbase.EOK {
		t.Fatalf("fault persisted: %v", e)
	}
	d.FailNextWrites(2)
	if e := d.Write(0, blockOf(d, 1)); e != kbase.EIO {
		t.Fatalf("injected write fault: %v", e)
	}
	if e := d.Write(0, blockOf(d, 1)); e != kbase.EIO {
		t.Fatalf("second injected write fault: %v", e)
	}
	if e := d.Write(0, blockOf(d, 1)); e != kbase.EOK {
		t.Fatalf("write fault persisted: %v", e)
	}
}

func TestBadBlock(t *testing.T) {
	d := testDev(4)
	d.MarkBad(2)
	if e := d.Read(2, make([]byte, d.BlockSize())); e != kbase.EIO {
		t.Fatalf("bad block read: %v", e)
	}
	if e := d.Write(2, blockOf(d, 1)); e != kbase.EIO {
		t.Fatalf("bad block write: %v", e)
	}
	if e := d.Read(1, make([]byte, d.BlockSize())); e != kbase.EOK {
		t.Fatalf("neighbor of bad block: %v", e)
	}
}

func TestReadOnly(t *testing.T) {
	d := testDev(4)
	d.SetReadOnly(true)
	if e := d.Write(0, blockOf(d, 1)); e != kbase.EROFS {
		t.Fatalf("read-only write: %v", e)
	}
	d.SetReadOnly(false)
	if e := d.Write(0, blockOf(d, 1)); e != kbase.EOK {
		t.Fatalf("write after clearing read-only: %v", e)
	}
}

func TestCrashApplySubset(t *testing.T) {
	d := testDev(8)
	d.Write(0, blockOf(d, 0xA0))
	d.Write(1, blockOf(d, 0xA1))
	d.Write(2, blockOf(d, 0xA2))
	d.CrashApplySubset(map[int]bool{1: true})
	buf := make([]byte, d.BlockSize())
	d.Read(0, buf)
	if buf[0] != 0 {
		t.Fatalf("dropped write 0 applied")
	}
	d.Read(1, buf)
	if buf[0] != 0xA1 {
		t.Fatalf("kept write 1 missing")
	}
	d.Read(2, buf)
	if buf[0] != 0 {
		t.Fatalf("dropped write 2 applied")
	}
}

func TestSnapshotRestore(t *testing.T) {
	d := testDev(4)
	d.Write(0, blockOf(d, 0x55))
	d.Flush()
	d.Write(1, blockOf(d, 0x66)) // pending at snapshot time
	snap := d.Snapshot()
	if snap.PendingCount() != 1 {
		t.Fatalf("snapshot pending = %d", snap.PendingCount())
	}

	d.Write(0, blockOf(d, 0x99))
	d.Flush()
	d.Restore(snap)

	buf := make([]byte, d.BlockSize())
	d.Read(0, buf)
	if buf[0] != 0x55 {
		t.Fatalf("durable state not restored: %#x", buf[0])
	}
	d.Read(1, buf)
	if buf[0] != 0x66 {
		t.Fatalf("pending write not restored: %#x", buf[0])
	}
	if d.PendingWrites() != 1 {
		t.Fatalf("restored pending = %d", d.PendingWrites())
	}
}

func TestLatencyModelAdvancesClock(t *testing.T) {
	clk := kbase.NewClock()
	d := New(Config{Blocks: 4, BlockSize: 32, ReadCost: 2, WriteCost: 5, FlushCost: 11, Clock: clk})
	d.Write(0, make([]byte, 32))
	d.Read(0, make([]byte, 32))
	d.Flush()
	if clk.Now() != 18 {
		t.Fatalf("clock = %d, want 18", clk.Now())
	}
}

func TestCrashDeterminism(t *testing.T) {
	run := func() []byte {
		d := New(Config{Blocks: 16, BlockSize: 32, Rng: kbase.NewRng(1234)})
		for i := uint64(0); i < 16; i++ {
			b := make([]byte, 32)
			b[0] = byte(i + 1)
			d.Write(i, b)
		}
		d.Crash()
		img := make([]byte, 0, 16)
		for i := uint64(0); i < 16; i++ {
			b := make([]byte, 32)
			d.Read(i, b)
			img = append(img, b[0])
		}
		return img
	}
	if !bytes.Equal(run(), run()) {
		t.Fatalf("crash outcome not deterministic under fixed seed")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New with zero capacity did not panic")
		}
	}()
	New(Config{})
}

// Property: durable state after write+flush equals what was written,
// for arbitrary data and block choice.
func TestWriteFlushReadProperty(t *testing.T) {
	d := testDev(32)
	f := func(blockRaw uint16, fill byte) bool {
		block := uint64(blockRaw % 32)
		data := blockOf(d, fill)
		if d.Write(block, data) != kbase.EOK {
			return false
		}
		if d.Flush() != kbase.EOK {
			return false
		}
		got := make([]byte, d.BlockSize())
		if d.Read(block, got) != kbase.EOK {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a crash never invents data — every durable block equals
// either its pre-crash durable content or some pending write to it
// (possibly torn: a prefix of the pending data over the old content).
func TestCrashNeverInventsDataProperty(t *testing.T) {
	f := func(seed uint64, fills []byte) bool {
		if len(fills) == 0 {
			return true
		}
		if len(fills) > 12 {
			fills = fills[:12]
		}
		d := New(Config{Blocks: 4, BlockSize: 16, Rng: kbase.NewRng(seed)})
		old := blockOf(d, 0x0F)
		d.Write(1, old)
		d.Flush()
		var writes [][]byte
		for _, fl := range fills {
			w := blockOf(d, fl)
			d.Write(1, w)
			writes = append(writes, w)
		}
		d.Crash()
		got := make([]byte, d.BlockSize())
		d.Read(1, got)
		// Tears can stack, so check fragment-wise: every torn-unit
		// fragment must match the old content or some pending write —
		// the device never invents bytes.
		candidates := append([][]byte{old}, writes...)
		unit := 16 / 8
		for off := 0; off < 16; off += unit {
			ok := false
			for _, c := range candidates {
				if bytes.Equal(got[off:off+unit], c[off:off+unit]) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteOwnedZeroCopy verifies the ownership-transfer write path:
// the device retains the caller's buffer without copying, so the
// durable image after Flush aliases the submitted slice.
func TestWriteOwnedZeroCopy(t *testing.T) {
	d := testDev(8)
	buf := blockOf(d, 0x5A)
	if e := d.WriteOwned(4, buf); e != kbase.EOK {
		t.Fatalf("WriteOwned: %v", e)
	}
	if e := d.Flush(); e != kbase.EOK {
		t.Fatalf("Flush: %v", e)
	}
	// The durable slot is the very slice the caller transferred: no
	// copy anywhere on the path (this aliasing is exactly why the
	// caller must not touch the buffer again).
	if &d.durable[4][0] != &buf[0] {
		t.Fatal("WriteOwned copied the buffer; ownership path must be zero-copy")
	}
	// Write (the defensive wrapper) must still copy.
	buf3 := blockOf(d, 0x33)
	d.Write(6, buf3)
	d.Flush()
	if &d.durable[6][0] == &buf3[0] {
		t.Fatal("Write no longer copies; defensive path must not alias caller memory")
	}
}

// TestWriteOwnedValidation verifies WriteOwned applies the same
// validation and fault model as Write.
func TestWriteOwnedValidation(t *testing.T) {
	d := testDev(8)
	if e := d.WriteOwned(1, make([]byte, d.BlockSize()-1)); e != kbase.EINVAL {
		t.Fatalf("short buffer: %v, want EINVAL", e)
	}
	if e := d.WriteOwned(99, blockOf(d, 1)); e != kbase.EINVAL {
		t.Fatalf("out of range: %v, want EINVAL", e)
	}
	d.FailNextWrites(1)
	if e := d.WriteOwned(1, blockOf(d, 1)); e != kbase.EIO {
		t.Fatalf("fault model: %v, want EIO", e)
	}
}

// Property: with concurrent writers racing on a few blocks (several
// sharing one shard), Flush makes durable exactly what Read returned
// just before it — the newest cached write of every block. Flush
// applies each shard's queue on its own, so this pins that no global
// merge is needed for the last write to win. Meaningful under -race.
func TestConcurrentFlushKeepsNewestWriteProperty(t *testing.T) {
	blocks := []uint64{0, NumShards, 2 * NumShards, 1, NumShards + 1}
	f := func(writersRaw, writesRaw uint8, salt byte) bool {
		writers := 2 + int(writersRaw%4)
		writes := 1 + int(writesRaw%16)
		d := testDev(3 * NumShards)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < writes; i++ {
					b := blocks[(g+i)%len(blocks)]
					d.Write(b, blockOf(d, salt+byte(g*writes+i)))
				}
			}(g)
		}
		wg.Wait()
		before := make(map[uint64][]byte)
		for _, b := range blocks {
			buf := make([]byte, d.BlockSize())
			if d.Read(b, buf) != kbase.EOK {
				return false
			}
			before[b] = buf
		}
		if d.Flush() != kbase.EOK || d.PendingWrites() != 0 {
			return false
		}
		for _, b := range blocks {
			durable := d.durable[b]
			if durable == nil { // never written: an all-zero block
				durable = make([]byte, d.BlockSize())
			}
			if !bytes.Equal(durable, before[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShardQueueInIssueOrder: writers racing on blocks of one shard
// leave its queue in sequence order, because each takes its sequence
// number under the shard lock, so Flush applies the queue as it stands
// and the newest write of every block wins. Meaningful under -race.
func TestShardQueueInIssueOrder(t *testing.T) {
	d := testDev(4 * NumShards)
	blocks := []uint64{3, NumShards + 3, 2*NumShards + 3}
	const writers, writes = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				d.Write(blocks[(g+i)%len(blocks)], blockOf(d, byte(g*writes+i)))
			}
		}(g)
	}
	wg.Wait()
	q := d.shard(3).pending
	if len(q) != writers*writes {
		t.Fatalf("shard queue holds %d writes, want %d", len(q), writers*writes)
	}
	newest := map[uint64][]byte{}
	for i, w := range q {
		if i > 0 && w.seq <= q[i-1].seq {
			t.Fatalf("queue out of issue order at %d: seq %d after %d", i, w.seq, q[i-1].seq)
		}
		newest[w.block] = w.data
	}
	if e := d.Flush(); e != kbase.EOK {
		t.Fatalf("Flush: %v", e)
	}
	for _, b := range blocks {
		if !bytes.Equal(d.durable[b], newest[b]) {
			t.Fatalf("block %d: Flush kept an older write over the newest", b)
		}
	}
}

// TestFlushRecyclesReplacedImages: a flush that replaces a durable
// image hands it to Page, the free list stays bounded, and Flush
// visits only shards with queued writes.
func TestFlushRecyclesReplacedImages(t *testing.T) {
	d := testDev(4 * freePages)
	for b := uint64(0); b < 2*freePages; b++ {
		d.Write(b, blockOf(d, 1))
	}
	d.Flush()
	if d.queued.Load() != 0 {
		t.Fatalf("queued mask %#x after a flush", d.queued.Load())
	}
	old := d.durable[5]
	for b := uint64(0); b < 2*freePages; b++ {
		d.Write(b, blockOf(d, 2))
	}
	if d.queued.Load() != 1<<NumShards-1 {
		t.Fatalf("queued mask %#x, want every shard", d.queued.Load())
	}
	d.Flush()
	held, found := 0, false
	for {
		p, ok := d.free.Get()
		if !ok {
			break
		}
		held++
		found = found || &p[0] == &old[0]
	}
	if held != freePages {
		t.Fatalf("free list held %d images, want the bound %d", held, freePages)
	}
	if !found {
		t.Fatal("a replaced durable image never reached the free list")
	}
	if p := d.Page(); len(p) != d.BlockSize() {
		t.Fatalf("Page past the free list: %d bytes, want %d", len(p), d.BlockSize())
	}
	buf := make([]byte, d.BlockSize())
	d.Read(5, buf)
	if !bytes.Equal(buf, blockOf(d, 2)) {
		t.Fatal("recycling changed a durable block")
	}
}

// TestConcurrentFlushIsABarrier: each writer writes its own block and
// flushes, and when its Flush returns the write is durable, although
// another writer's flush may have claimed the queued mask first. Each
// writer's block is on its own shard.
func TestConcurrentFlushIsABarrier(t *testing.T) {
	d := testDev(NumShards)
	const writers, rounds = 4, 300
	var wg sync.WaitGroup
	errs := make(chan string, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(b uint64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				want := blockOf(d, byte(i))
				d.Write(b, want)
				d.Flush()
				s := d.shard(b)
				s.mu.Lock()
				ok := bytes.Equal(d.durable[b], want)
				s.mu.Unlock()
				if !ok {
					errs <- fmt.Sprintf("block %d round %d: not durable after Flush returned", b, i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
