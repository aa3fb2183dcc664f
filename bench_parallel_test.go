// Parallel benchmarks for the sharded I/O path. Before the blk-mq
// style refactor every layer funneled through one big lock (device
// ctl, cache mutex, fs mutex, VFS mutex); these benches measure how
// throughput scales with goroutines now that each layer is striped.
//
// Compare single-goroutine and multi-goroutine throughput:
//
//	go test -bench=Parallel -cpu=1,4,8
package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// parallelWorkerSlots bounds the number of pre-provisioned worker
// directories; RunParallel workers beyond it share files round-robin.
const parallelWorkerSlots = 64

// benchFSParallel runs a read-heavy mixed workload (13/16 pread,
// 2/16 stat, 1/16 pwrite) with each worker on its own file under its
// own directory, through the full VFS → fs → journal → cache → device
// stack. Lock validation is switched off, as lockdep would be in a
// production kernel build — its global graph mutex is not part of the
// data path being measured.
func benchFSParallel(b *testing.B, fsName string) {
	prevLV := kbase.SetLockValidation(false)
	b.Cleanup(func() { kbase.SetLockValidation(prevLV) })
	v, setupTask, _ := fsBenchSetup(b, fsName)

	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < parallelWorkerSlots; i++ {
		dir := fmt.Sprintf("/w%d", i)
		if err := v.Mkdir(setupTask, dir); err.IsError() {
			b.Fatalf("mkdir %s: %v", dir, err)
		}
		fd, err := v.Open(setupTask, dir+"/data", vfs.OWrOnly|vfs.OCreate)
		if err.IsError() {
			b.Fatalf("open: %v", err)
		}
		if _, err := v.Pwrite(setupTask, fd, payload, 0); err.IsError() {
			b.Fatalf("pwrite: %v", err)
		}
		v.Close(fd)
	}

	var nextWorker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextWorker.Add(1)-1) % parallelWorkerSlots
		task := kbase.NewTask()
		path := fmt.Sprintf("/w%d/data", id)
		fd, err := v.Open(task, path, vfs.ORdWr)
		if err.IsError() {
			b.Errorf("open %s: %v", path, err)
			return
		}
		defer v.Close(fd)
		buf := make([]byte, 512)
		i := 0
		for pb.Next() {
			off := int64(i%4) * 512
			switch i % 16 {
			case 15:
				if _, err := v.Pwrite(task, fd, buf, off); err.IsError() {
					b.Errorf("pwrite: %v", err)
					return
				}
			case 5, 11:
				if _, err := v.Stat(task, path); err.IsError() {
					b.Errorf("stat: %v", err)
					return
				}
			default:
				if _, err := v.Pread(task, fd, buf, off); err.IsError() {
					b.Errorf("pread: %v", err)
					return
				}
			}
			i++
		}
	})
}

func BenchmarkFSLegacyParallel(b *testing.B) { benchFSParallel(b, "extlike") }
func BenchmarkFSSafeParallel(b *testing.B)   { benchFSParallel(b, "safefs") }

// BenchmarkBufcacheParallelGet hammers the buffer cache hot path —
// GetBlk hit, refcount up, refcount down — from all goroutines at
// once over a working set striped across every shard.
func BenchmarkBufcacheParallelGet(b *testing.B) {
	prevLV := kbase.SetLockValidation(false)
	b.Cleanup(func() { kbase.SetLockValidation(prevLV) })
	const blocks = 4096
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 512, Rng: kbase.NewRng(7)})
	c := bufcache.NewCache(dev, 0)
	for blk := uint64(0); blk < blocks; blk++ {
		bh, err := c.Bread(blk)
		if err.IsError() {
			b.Fatalf("warm Bread(%d): %v", blk, err)
		}
		bh.Put()
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := kbase.NewRng(uint64(seed.Add(1)) * 0x9E3779B9)
		var sink byte
		for pb.Next() {
			blk := rng.Uint64() % blocks
			bh, err := c.Bread(blk)
			if err.IsError() {
				b.Errorf("Bread(%d): %v", blk, err)
				return
			}
			sink += bh.Data[0]
			bh.Put()
		}
		_ = sink
	})
}
