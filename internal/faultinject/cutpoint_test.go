package faultinject

import (
	"fmt"
	"slices"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
)

// barrierlessDisk is the journal's device with its flushes held back:
// each barrier records the writes issued before it (as the word
// "barrier") instead of making them durable, so every write of a
// commit is still pending when the test cuts power.
type barrierlessDisk struct {
	*blockdev.Device
	log      []string // block numbers written and barriers, in issue order
	barriers []int    // pending-write count at each barrier
}

func (d *barrierlessDisk) WriteOwned(block uint64, data []byte) kbase.Errno {
	d.log = append(d.log, fmt.Sprint(block))
	return d.Device.WriteOwned(block, data)
}

func (d *barrierlessDisk) Flush() kbase.Errno {
	d.log = append(d.log, "barrier")
	d.barriers = append(d.barriers, d.Device.PendingWrites())
	return kbase.EOK
}

// TestCommitCutPointSweep cuts power at every point of one journal
// commit. Transaction 1 commits and is not checkpointed; transaction 2
// logs three buffers and a revoke with all of its writes held
// pending. The device then crashes keeping each prefix of the pending
// writes, and, separately, each single write of the commit. After each
// crash a fresh mount recovers: transaction 1 always replays, and
// transaction 2's home blocks are all old or all new — new exactly
// when the kept prefix reaches its final barrier.
func TestCommitCutPointSweep(t *testing.T) {
	dev, cache, j, _ := asyncJournalRig(t)
	journalWrite(t, cache, j, 40, 0xC1)
	journalWrite(t, cache, j, 41, 0xC2)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 1: %v", err)
	}

	disk := &barrierlessDisk{Device: dev}
	cache.SetEngine(kio.New(disk))
	h := j.Begin()
	if err := h.Revoke(39); err != kbase.EOK {
		t.Fatalf("Revoke: %v", err)
	}
	h.Stop()
	journalWrite(t, cache, j, 41, 0xD1)
	journalWrite(t, cache, j, 42, 0xD2)
	journalWrite(t, cache, j, 43, 0xD3)
	if err := j.Commit(); err != kbase.EOK {
		t.Fatalf("Commit 2: %v", err)
	}

	// Transaction 1 took journal blocks 1-4, so transaction 2's
	// descriptor is block 5, its data 6-8, its revoke 9 and its commit
	// record 10. The one commit order: data, descriptor and revoke,
	// barrier, commit record, barrier.
	wantLog := []string{"6", "7", "8", "5", "9", "barrier", "10", "barrier"}
	if !slices.Equal(disk.log, wantLog) {
		t.Fatalf("commit issue order %v, want %v", disk.log, wantLog)
	}
	// Pending: transaction 1's two home writes, transaction 2's six log
	// writes, then its three home writes.
	snap := dev.Snapshot()
	pending := snap.PendingCount()
	final := disk.barriers[len(disk.barriers)-1]
	if pending != 11 || final != 8 {
		t.Fatalf("pending %d, final barrier after %d writes; want 11 and 8", pending, final)
	}

	oldHome := map[uint64]byte{40: 0xC1, 41: 0xC2, 42: 0, 43: 0}
	newHome := map[uint64]byte{40: 0xC1, 41: 0xD1, 42: 0xD2, 43: 0xD3}
	crash := func(name string, keep map[int]bool, wantNew bool) {
		t.Helper()
		dev.Restore(snap)
		dev.CrashApplySubset(keep)
		// Remount: fresh cache and journal state over the crashed image.
		n, err := journal.New(bufcache.NewCache(dev, 0), 0, 32).Recover()
		if err != kbase.EOK {
			t.Fatalf("%s: Recover: %v", name, err)
		}
		want, wantN := oldHome, 1
		if wantNew {
			want, wantN = newHome, 2
		}
		if n != wantN {
			t.Errorf("%s: replayed %d transactions, want %d", name, n, wantN)
		}
		raw := make([]byte, dev.BlockSize())
		for block, b := range want {
			if err := dev.Read(block, raw); err != kbase.EOK {
				t.Fatalf("%s: Read(%d): %v", name, block, err)
			}
			for i, got := range raw {
				if got != b {
					t.Errorf("%s: block %d byte %d = %#x, want %#x (new=%v)", name, block, i, got, b, wantNew)
					break
				}
			}
		}
	}
	for k := 0; k <= pending; k++ {
		keep := map[int]bool{}
		for i := 0; i < k; i++ {
			keep[i] = true
		}
		crash(fmt.Sprintf("prefix %d", k), keep, k >= final)
	}
	// One surviving write never carries a whole transaction. The home
	// writes are left out: they are issued only once the final barrier
	// has returned, so no crash keeps one without the log before it.
	for i := 0; i < final; i++ {
		crash(fmt.Sprintf("single %d", i), map[int]bool{i: true}, false)
	}
}
