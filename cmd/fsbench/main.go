// Command fsbench compares file-system implementations under the
// workload generator: the legacy journaling extlike versus the
// verified safefs, across data-heavy and metadata-heavy mixes. It
// reports simulated-device activity (the architecture-level cost) and
// wall-clock throughput (the implementation-level cost), the numbers
// behind the "safe modules perform competitively" claim.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/workload"
)

func main() {
	ops := flag.Int("ops", 5000, "operations per run")
	seed := flag.Uint64("seed", 1, "workload seed")
	blocks := flag.Uint64("blocks", 32768, "device blocks")
	flag.Parse()

	mixes := map[string]workload.FSMix{
		"data-heavy":     workload.DataHeavyMix(),
		"metadata-heavy": workload.MetadataHeavyMix(),
	}
	fmt.Printf("%-16s %-10s %10s %10s %10s %10s %12s\n",
		"mix", "fs", "ops", "errors", "devReads", "devWrites", "wall")
	for _, mixName := range []string{"data-heavy", "metadata-heavy"} {
		mix := mixes[mixName]
		for _, fsName := range []string{"extlike", "safefs"} {
			stats, dev, wall := run(fsName, mix, *ops, *seed, *blocks)
			fmt.Printf("%-16s %-10s %10d %10d %10d %10d %12s\n",
				mixName, fsName, stats.Ops, stats.Errors,
				ktrace.Read(dev.CollectMetrics, "reads"), ktrace.Read(dev.CollectMetrics, "writes"),
				wall.Round(time.Millisecond))
		}
	}
}

func run(fsName string, mix workload.FSMix, ops int, seed, blocks uint64) (workload.FSStats, *blockdev.Device, time.Duration) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: 512, Rng: kbase.NewRng(seed)})
	v := vfs.New(nil)
	task := kbase.NewTask()
	switch fsName {
	case "extlike":
		if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err.IsError() {
			fatal("mkfs", err)
		}
		if err := v.RegisterFS(&extlike.FS{}); err.IsError() {
			fatal("register", err)
		}
		if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err.IsError() {
			fatal("mount", err)
		}
	case "safefs":
		if err := safefs.Format(dev); err.IsError() {
			fatal("format", err)
		}
		if err := v.RegisterFS(&safefs.FS{SyncOnCommit: true}); err.IsError() {
			fatal("register", err)
		}
		if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev})); err.IsError() {
			fatal("mount", err)
		}
	}
	w := workload.NewFS(workload.FSConfig{Seed: seed, Ops: ops, Mix: mix})
	start := time.Now()
	stats := w.Run(v, task)
	wall := time.Since(start)
	return stats, dev, wall
}

func fatal(what string, err kbase.Errno) {
	fmt.Fprintf(os.Stderr, "fsbench: %s: %v\n", what, err)
	os.Exit(1)
}
