// Command kfsck demonstrates offline consistency checking of the
// extlike file system: it builds three volumes — healthy, leaking, and
// crashed-before-writeback — and runs fsck on each. The leak is a real
// extlike behaviour, not a planted bug: a file unlinked while still
// open keeps its blocks until the last close, and extlike keeps no
// orphan list, so a crash before that close leaves them allocated and
// unreachable. The devices are simulated, so the tool is a
// self-contained demonstration rather than something pointed at a
// disk image. It exits non-zero unless the healthy and replayed
// volumes are clean and the leaking one reports leaked blocks.
package main

import (
	"fmt"
	"os"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/workload"
)

func main() {
	rec := &kbase.OopsRecorder{}
	kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(nil)

	fmt.Println("== healthy volume ==")
	healthy := check(buildVolume(false, false))

	fmt.Println("\n== volume crashed with an unlinked file still open (leak) ==")
	leaky := check(buildVolume(true, true))

	fmt.Println("\n== volume crashed before writeback (journal replay) ==")
	replayed := check(buildVolume(false, true))

	if !healthy.Clean() || !replayed.Clean() || len(leaky.LeakedBlocks) == 0 {
		fmt.Fprintln(os.Stderr, "kfsck: want the healthy and replayed volumes clean and the leak volume to report leaked blocks")
		os.Exit(1)
	}
}

// buildVolume creates a device and runs a workload (including
// unlinks). With orphan set it then unlinks a file it still holds
// open. It ends with a crash, before any writeback or last close, or
// with a clean unmount.
func buildVolume(orphan, crash bool) *blockdev.Device {
	dev := blockdev.New(blockdev.Config{Blocks: 4096, BlockSize: 512, Rng: kbase.NewRng(11)})
	_, err := extlike.Mkfs(dev, extlike.MkfsOptions{})
	must("mkfs", err)
	v := vfs.New(nil)
	task := kbase.NewTask()
	must("register", v.RegisterFS(&extlike.FS{}))
	must("mount", v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})))
	w := workload.NewFS(workload.FSConfig{Seed: 5, Ops: 400, Mix: workload.MetadataHeavyMix()})
	w.Run(v, task)
	if orphan {
		fd, err := v.Open(task, "/orphan", vfs.OWrOnly|vfs.OCreate)
		must("open", err)
		_, err = v.Write(task, fd, make([]byte, 8192))
		must("write", err)
		must("unlink", v.Unlink(task, "/orphan"))
	}
	if crash {
		dev.CrashApplyNone()
	} else {
		must("unmount", v.Unmount(task, "/"))
	}
	return dev
}

func check(dev *blockdev.Device) extlike.FsckReport {
	rep, err := extlike.Fsck(dev)
	must("fsck", err)
	fmt.Print(rep.Summary())
	return rep
}

func must(what string, err kbase.Errno) {
	if err.IsError() {
		fmt.Fprintf(os.Stderr, "kfsck: %s: %v\n", what, err)
		os.Exit(1)
	}
}
