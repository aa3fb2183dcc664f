package bench

// Ablation benchmarks: the design choices DESIGN.md calls out, each
// measured with the mechanism switched on and off.
//
//   - safefs durability mode (SyncOnCommit): per-op flush vs deferred
//   - lockdep-style lock validation: on vs off
//   - dentry cache: cold vs warm path resolution
//   - buffer cache sizing: unbounded vs tight (eviction pressure)
//   - safefs checkpoint cost as state grows

import (
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/workload"
)

// --- safefs durability mode ---

func benchSafefsSync(b *testing.B, syncOnCommit bool) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	dev := blockdev.New(blockdev.Config{Blocks: 65536, BlockSize: 512, Rng: kbase.NewRng(1)})
	if err := safefs.Format(dev); err.IsError() {
		b.Fatalf("format: %v", err)
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&safefs.FS{SyncOnCommit: syncOnCommit})
	if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev})); err.IsError() {
		b.Fatalf("mount: %v", err)
	}
	b.ResetTimer()
	done := 0
	for done < b.N {
		chunk := b.N - done
		if chunk > 2000 {
			chunk = 2000
		}
		workload.NewFS(workload.FSConfig{Seed: uint64(done + 1), Ops: chunk}).Run(v, task)
		done += chunk
	}
	b.StopTimer()
	b.ReportMetric(float64(ktrace.Read(dev.CollectMetrics, "flushes"))/float64(b.N), "flushes/op")
}

func BenchmarkAblationSafefsSyncOnCommit(b *testing.B) { benchSafefsSync(b, true) }
func BenchmarkAblationSafefsDeferredSync(b *testing.B) { benchSafefsSync(b, false) }

// --- lockdep on/off ---

func benchLockValidation(b *testing.B, on bool) {
	prev := kbase.SetLockValidation(on)
	defer kbase.SetLockValidation(prev)
	class := kbase.NewLockClass("ablation-lock")
	l := kbase.NewKMutex(class)
	task := kbase.NewTask()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(task)
		l.Unlock(task)
	}
}

func BenchmarkAblationLockdepOn(b *testing.B)  { benchLockValidation(b, true) }
func BenchmarkAblationLockdepOff(b *testing.B) { benchLockValidation(b, false) }

// --- dentry cache: cold vs warm lookups ---

func dcacheKernel(b *testing.B, depth int) (*vfs.VFS, *kbase.Task, string) {
	b.Helper()
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&ramfs.FS{})
	if err := v.Mount(task, "/", "ramfs", vfs.MountData{}); err.IsError() {
		b.Fatalf("mount: %v", err)
	}
	path := ""
	for i := 0; i < depth; i++ {
		path = fmt.Sprintf("%s/dir%d", path, i)
		if err := v.Mkdir(task, path); err.IsError() {
			b.Fatalf("mkdir: %v", err)
		}
	}
	leaf := path + "/leaf"
	fd, err := v.Open(task, leaf, vfs.OWrOnly|vfs.OCreate)
	if err.IsError() {
		b.Fatalf("open: %v", err)
	}
	v.Close(fd)
	return v, task, leaf
}

// BenchmarkAblationDcacheWarm resolves the same deep path repeatedly:
// every component comes from the dentry cache.
func BenchmarkAblationDcacheWarm(b *testing.B) {
	v, task, leaf := dcacheKernel(b, 8)
	v.Stat(task, leaf) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Stat(task, leaf); err.IsError() {
			b.Fatal(err)
		}
	}
	var hits, misses uint64
	v.CollectMetrics(func(name string, val uint64) {
		switch name {
		case "dcache_hits":
			hits = val
		case "dcache_misses":
			misses = val
		}
	})
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
}

// BenchmarkAblationDcacheCold defeats the cache by touching a
// different leaf name every iteration (negative entries pile up but
// each final component misses).
func BenchmarkAblationDcacheCold(b *testing.B) {
	v, task, _ := dcacheKernel(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each probe has a unique final component: guaranteed miss.
		v.Stat(task, fmt.Sprintf("/dir0/dir1/nope-%d", i))
	}
}

// --- buffer cache sizing under the legacy FS ---

func benchExtlikeCache(b *testing.B, cacheSize int) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	dev := blockdev.New(blockdev.Config{Blocks: 65536, BlockSize: 512, Rng: kbase.NewRng(1)})
	if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err.IsError() {
		b.Fatalf("mkfs: %v", err)
	}
	v := vfs.New(nil)
	task := kbase.NewTask()
	v.RegisterFS(&extlike.FS{})
	if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev, CacheSize: cacheSize})); err.IsError() {
		b.Fatalf("mount: %v", err)
	}
	b.ResetTimer()
	done := 0
	for done < b.N {
		chunk := b.N - done
		if chunk > 2000 {
			chunk = 2000
		}
		workload.NewFS(workload.FSConfig{Seed: uint64(done + 1), Ops: chunk}).Run(v, task)
		done += chunk
	}
	b.StopTimer()
	b.ReportMetric(float64(ktrace.Read(dev.CollectMetrics, "reads"))/float64(b.N), "devReads/op")
}

func BenchmarkAblationBufcacheUnbounded(b *testing.B) { benchExtlikeCache(b, 0) }
func BenchmarkAblationBufcacheTight(b *testing.B)     { benchExtlikeCache(b, 64) }

// --- safefs checkpoint cost vs. state size ---

func BenchmarkAblationSafefsCheckpoint(b *testing.B) {
	for _, files := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			dev := blockdev.New(blockdev.Config{Blocks: 1 << 17, BlockSize: 512, Rng: kbase.NewRng(1)})
			if err := safefs.Format(dev); err.IsError() {
				b.Fatalf("format: %v", err)
			}
			v := vfs.New(nil)
			task := kbase.NewTask()
			v.RegisterFS(&safefs.FS{SyncOnCommit: false})
			if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev})); err.IsError() {
				b.Fatalf("mount: %v", err)
			}
			payload := make([]byte, 512)
			for i := 0; i < files; i++ {
				fd, err := v.Open(task, fmt.Sprintf("/f%05d", i), vfs.OWrOnly|vfs.OCreate)
				if err.IsError() {
					b.Fatalf("open: %v", err)
				}
				v.Write(task, fd, payload)
				v.Close(fd)
			}
			root, err := v.Resolve(task, "/")
			if err.IsError() {
				b.Fatalf("resolve: %v", err)
			}
			inst, ok := safefs.InstanceOf(root.Sb)
			if !ok {
				b.Fatal("not a safefs superblock")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inst.Checkpoint(); err.IsError() {
					b.Fatalf("checkpoint: %v", err)
				}
			}
		})
	}
}
