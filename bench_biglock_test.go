// Big-lock baselines for the parallel benchmarks: the same workloads
// as bench_parallel_test.go but serialized through one global mutex,
// reconstructing the pre-refactor single-queue shape. The interesting
// comparison is how ns/op moves from -cpu=1 to -cpu=8: the sharded
// path stays flat (and on multi-core hardware drops), the big-lock
// path degrades as contending goroutines pile onto one mutex.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// BenchmarkBufcacheParallelGetBigLock: BenchmarkBufcacheParallelGet
// with every Bread/Put pair inside one global critical section.
func BenchmarkBufcacheParallelGetBigLock(b *testing.B) {
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
	var big sync.Mutex
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := kbase.NewRng(uint64(seed.Add(1)) * 0x9E3779B9)
		var sink byte
		for pb.Next() {
			blk := rng.Uint64() % blocks
			big.Lock()
			bh, err := c.Bread(blk)
			if err.IsError() {
				big.Unlock()
				b.Errorf("Bread(%d): %v", blk, err)
				return
			}
			sink += bh.Data[0]
			bh.Put()
			big.Unlock()
		}
		_ = sink
	})
}

// BenchmarkFSLegacyParallelBigLock: the benchFSParallel workload on
// extlike with every syscall inside one global critical section.
func BenchmarkFSLegacyParallelBigLock(b *testing.B) {
	prevLV := kbase.SetLockValidation(false)
	b.Cleanup(func() { kbase.SetLockValidation(prevLV) })
	v, setupTask, _ := fsBenchSetup(b, "extlike")

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

	var big sync.Mutex
	var nextWorker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextWorker.Add(1)-1) % parallelWorkerSlots
		task := kbase.NewTask()
		path := fmt.Sprintf("/w%d/data", id)
		big.Lock()
		fd, err := v.Open(task, path, vfs.ORdWr)
		big.Unlock()
		if err.IsError() {
			b.Errorf("open %s: %v", path, err)
			return
		}
		defer v.Close(fd)
		buf := make([]byte, 512)
		i := 0
		for pb.Next() {
			off := int64(i%4) * 512
			big.Lock()
			switch i % 16 {
			case 15:
				if _, err := v.Pwrite(task, fd, buf, off); err.IsError() {
					big.Unlock()
					b.Errorf("pwrite: %v", err)
					return
				}
			case 5, 11:
				if _, err := v.Stat(task, path); err.IsError() {
					big.Unlock()
					b.Errorf("stat: %v", err)
					return
				}
			default:
				if _, err := v.Pread(task, fd, buf, off); err.IsError() {
					big.Unlock()
					b.Errorf("pread: %v", err)
					return
				}
			}
			big.Unlock()
			i++
		}
	})
}
