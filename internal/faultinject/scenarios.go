package faultinject

import (
	"bytes"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/typedapi"
)

// Scenarios returns the standard campaign: one scenario per §2 bug
// class, each implemented against the real modules of this kernel.
func Scenarios() []Scenario {
	return []Scenario{
		nullDerefScenario(),
		useAfterFreeScenario(),
		doubleFreeScenario(),
		dataRaceScenario(),
		leakScenario(),
		typeConfusionScenario(),
		outOfBoundsScenario(),
		crashSemanticScenario(),
	}
}

// mount mounts fs at / of a fresh VFS for scenario use. Setup errors
// are discarded throughout this file on purpose: a scenario whose rig
// failed to assemble reports a wrong Outcome, which the campaign test
// asserts on — the discard cannot hide a regression.
func mount(fs vfs.FileSystemType, data vfs.MountData) (*vfs.VFS, *kbase.Task) {
	v := vfs.New(nil)
	task := kbase.NewTask()
	_ = v.RegisterFS(fs)
	_ = v.Mount(task, "/", fs.Name(), data)
	return v, task
}

func mountRam() (*vfs.VFS, *kbase.Task) { return mount(&ramfs.FS{}, vfs.MountData{}) }

// mountExt mounts the extlike volume on dev, replaying its journal.
func mountExt(dev *blockdev.Device) (*vfs.VFS, *kbase.Task) {
	return mount(&extlike.FS{}, vfs.NewMountData(&extlike.MountData{Dev: dev}))
}

// mountSafe mounts the safefs volume on dev, replaying its log.
func mountSafe(dev *blockdev.Device, ck *own.Checker) (*vfs.VFS, *kbase.Task) {
	return mount(&safefs.FS{SyncOnCommit: true}, vfs.NewMountData(&safefs.MountData{Disk: dev, Checker: ck}))
}

// nullDerefScenario: the ERR_PTR idiom invites using an error
// sentinel as a real object; the zero-valued fields silently steer
// logic. The ownership API's zero capability refuses access instead.
func nullDerefScenario() Scenario {
	return Scenario{
		Name:        "errptr-null-deref",
		Class:       kbase.OopsNullDeref,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			// A caller forgets IS_ERR and consumes the sentinel.
			ino := kbase.ErrPtr[vfs.Inode](kbase.ENOENT) //kerncheck:ignore errptr deliberate reproduction of the retired ERR_PTR pathology
			// ino.Ino is 0, ino.Mode is 0 — garbage flows onward,
			// nothing traps.
			if ino.Ino == 0 && !kbase.IsErr(ino) { //kerncheck:ignore errptr deliberate reproduction of the retired ERR_PTR pathology
				return OutcomeDetectedLate // unreachable: IsErr is true
			}
			_ = ino.Ino
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			var missing own.Owned[vfs.Inode] // the zero capability
			if missing.Use(func(*vfs.Inode) {}) {
				return OutcomeManifested
			}
			return OutcomePrevented
		},
	}
}

// useAfterFreeScenario: manual lifetime management reuses a freed
// object; KASAN-style tracking notices only when the access happens.
func useAfterFreeScenario() Scenario {
	return Scenario{
		Name:        "inode-use-after-free",
		Class:       kbase.OopsUseAfterFree,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			arena := kbase.NewArena("scenario")
			obj := &vfs.Inode{Ino: 9}
			kbase.Alloc(arena, obj)
			kbase.Free(arena, obj)
			kbase.Access(arena, obj) // the buggy access happens
			if e.Recorder.Count(kbase.OopsUseAfterFree) > 0 {
				return OutcomeDetectedLate
			}
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			ck := own.NewChecker(own.PolicyRecord)
			o := own.New(ck, "inode", vfs.Inode{Ino: 9})
			o.Free()
			if o.Use(func(*vfs.Inode) {}) {
				return OutcomeManifested // access went through
			}
			return OutcomePrevented
		},
	}
}

// doubleFreeScenario mirrors CWE-415.
func doubleFreeScenario() Scenario {
	return Scenario{
		Name:        "buffer-double-free",
		Class:       kbase.OopsDoubleFree,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			arena := kbase.NewArena("scenario")
			obj := &struct{ b [64]byte }{}
			kbase.Alloc(arena, obj)
			kbase.Free(arena, obj)
			kbase.Free(arena, obj)
			if e.Recorder.Count(kbase.OopsDoubleFree) > 0 {
				return OutcomeDetectedLate
			}
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			ck := own.NewChecker(own.PolicyRecord)
			o := own.New(ck, "buf", [64]byte{})
			o.Free()
			if o.Free() {
				return OutcomeManifested
			}
			return OutcomePrevented
		},
	}
}

// dataRaceScenario: the "maybe protected by i_lock" i_size store
// races a locked reader; nothing in the legacy kernel notices. The
// field is exported, so any component can store it without the lock.
// The capability API refuses the second writer.
func dataRaceScenario() Scenario {
	return Scenario{
		Name:        "isize-unlocked-store",
		Class:       kbase.OopsDataRace,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			v, task := mountRam()
			fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
			_, _ = v.Write(task, fd, []byte("racy"))
			// A component stores i_size without i_lock while the stat
			// path reads it under the lock; the discipline is broken
			// and nobody reports it.
			if ino, err := v.Resolve(task, "/f"); err == kbase.EOK {
				ino.ISize = 2
			}
			_, _ = v.Stat(task, "/f")
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			ck := own.NewChecker(own.PolicyRecord)
			size := own.New(ck, "i_size", int64(0))
			m, ok := size.BorrowMut() // the writer holds exclusivity
			if !ok {
				return OutcomeManifested
			}
			defer m.Release()
			// A second, undisciplined writer cannot get in.
			if size.Use(func(*int64) {}) {
				return OutcomeManifested
			}
			return OutcomePrevented
		},
	}
}

// leakScenario mirrors CWE-401: a file unlinked while still open keeps
// its blocks until the last close, and a crash before that close leaks
// them on disk, since extlike keeps no orphan list to reclaim them at
// the next mount.
func leakScenario() Scenario {
	return Scenario{
		Name:        "unlink-block-leak",
		Class:       kbase.OopsLeak,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			dev := blockdev.New(blockdev.Config{Blocks: 256, BlockSize: 512, Rng: kbase.NewRng(1)})
			_, _ = extlike.Mkfs(dev, extlike.MkfsOptions{})
			v, task := mountExt(dev)
			before, _ := v.Statfs(task, "/")
			fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
			_, _ = v.Write(task, fd, make([]byte, 4096))
			_ = v.Unlink(task, "/f")
			dev.CrashApplyNone() // power lost before the last close
			v2, task2 := mountExt(dev)
			after, _ := v2.Statfs(task2, "/")
			if after.FreeBlocks < before.FreeBlocks {
				return OutcomeManifested // blocks silently gone
			}
			return OutcomePrevented
		},
		Safe: func(e *Env) Outcome {
			dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: 256, Rng: kbase.NewRng(1)})
			_ = safefs.Format(dev)
			ck := own.NewChecker(own.PolicyRecord)
			v, task := mountSafe(dev, ck)
			fd, _ := v.Open(task, "/f", vfs.OWrOnly|vfs.OCreate)
			_, _ = v.Write(task, fd, make([]byte, 4096))
			_ = v.Close(fd)
			_ = v.Unlink(task, "/f")
			_ = v.Unmount(task, "/")
			if len(ck.CheckLeaks()) > 0 {
				return OutcomeDetectedLate // leak exists but is reported
			}
			return OutcomePrevented
		},
	}
}

// typeConfusionScenario mirrors §4.2's write_begin/write_end void*
// confusion (and CVE-2020-12351's flavor of the bug): a layer stacked
// on ramfs's file operations hands ramfs a write state of its own.
func typeConfusionScenario() Scenario {
	return Scenario{
		Name:        "writeend-type-confusion",
		Class:       kbase.OopsTypeConfusion,
		PreventedBy: module.LevelTypeSafe,
		Legacy: func(e *Env) Outcome {
			v, task := mountRam()
			fd, _ := v.Open(task, "/victim", vfs.OWrOnly|vfs.OCreate)
			if ino, err := v.Resolve(task, "/victim"); err == kbase.EOK {
				ino.FileOps = foreignWriteOps{ino.FileOps}
			}
			_, _ = v.Write(task, fd, []byte("boom"))
			if e.Recorder.Count(kbase.OopsTypeConfusion) > 0 {
				return OutcomeDetectedLate // cast misfired at use site
			}
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			// The typed token cannot cross components: a foreign
			// issuer is rejected before any payload is interpreted.
			tok := typedapi.Issue("fs-a.write", 42)
			if _, err := tok.Redeem("fs-b.write"); err != kbase.EACCES {
				return OutcomeManifested
			}
			return OutcomePrevented
		},
	}
}

// outOfBoundsScenario: runt packets walk off the legacy parser's
// buffer; the typed parser validates the frame before touching it.
func outOfBoundsScenario() Scenario {
	return Scenario{
		Name:        "runt-packet-parse",
		Class:       kbase.OopsOutOfBounds,
		PreventedBy: module.LevelOwnershipSafe,
		Legacy: func(e *Env) Outcome {
			// A mangled runt frame hits the offset-walking parser.
			_, _, _, _, _ = net.ParseIP([]byte{0xDE, 0xAD})
			if e.Recorder.Count(kbase.OopsOutOfBounds) > 0 {
				return OutcomeDetectedLate
			}
			return OutcomeManifested
		},
		Safe: func(e *Env) Outcome {
			res := safetcp.ParseSegment([]byte{0xDE, 0xAD})
			if res.IsOk() {
				return OutcomeManifested
			}
			if e.Recorder.Count("") > 0 {
				return OutcomeDetectedLate
			}
			return OutcomePrevented // clean typed rejection, no oops
		},
	}
}

// crashSemanticScenario: the functional-correctness class — an FS
// that acknowledges a write and, after a crash, shows a state no
// prefix of that write could have left. extlike runs data=writeback:
// the journal replays the file's size and block map, but the data
// block was never written, so the file reads back as zeros. The
// verified module's logging discipline makes such a state impossible.
func crashSemanticScenario() Scenario {
	return Scenario{
		Name:        "ack-then-lose-crash",
		Class:       kbase.OopsSemantic,
		PreventedBy: module.LevelVerified,
		Legacy: func(e *Env) Outcome {
			dev := blockdev.New(blockdev.Config{Blocks: 256, BlockSize: 512, Rng: kbase.NewRng(1)})
			_, _ = extlike.Mkfs(dev, extlike.MkfsOptions{})
			writeAcked(mountExt(dev))
			dev.CrashApplyNone()
			return crashOutcome(mountExt(dev))
		},
		Safe: func(e *Env) Outcome {
			dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: 256, Rng: kbase.NewRng(1)})
			_ = safefs.Format(dev)
			writeAcked(mountSafe(dev, nil))
			dev.CrashApplyNone()
			return crashOutcome(mountSafe(dev, nil))
		},
	}
}

// acked is what the crash-semantics scenario writes, closes and has
// acknowledged, with no fsync.
var acked = []byte("acknowledged bytes")

func writeAcked(v *vfs.VFS, task *kbase.Task) {
	fd, _ := v.Open(task, "/acked", vfs.OWrOnly|vfs.OCreate)
	_, _ = v.Write(task, fd, acked)
	_ = v.Close(fd)
}

// crashOutcome judges /acked after the crash. Without an fsync a crash
// may lose the write, whole or a tail of it: the file may be absent or
// shorter, but what it holds must be the written bytes. A volume that
// did not mount, or a file holding other bytes, is a torn state.
func crashOutcome(v *vfs.VFS, task *kbase.Task) Outcome {
	if _, err := v.Stat(task, "/"); err != kbase.EOK {
		return OutcomeManifested
	}
	fd, err := v.Open(task, "/acked", vfs.ORdOnly)
	if err == kbase.ENOENT {
		return OutcomePrevented
	}
	st, _ := v.Stat(task, "/acked")
	got := make([]byte, len(acked)+1)
	n, _ := v.Pread(task, fd, got, 0)
	if err != kbase.EOK || int64(n) != st.Size || !bytes.HasPrefix(acked, got[:n]) {
		return OutcomeManifested // acknowledged bytes replaced by others
	}
	return OutcomePrevented
}

// foreignWriteOps stacks on a file system's file operations, as a
// layered file system does, and hands the lower WriteCopy and WriteEnd
// a write state of its own in place of the one the lower WriteBegin
// would have made.
type foreignWriteOps struct{ vfs.FileOps }

func (foreignWriteOps) WriteBegin(task *kbase.Task, ino *vfs.Inode, off int64, n int) (vfs.WriteState, kbase.Errno) {
	return vfs.NewWriteState(&off), kbase.EOK
}
