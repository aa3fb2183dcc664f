package extlike

import (
	"slices"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
)

// bitModel is the allocator's specification: a set of used bits whose
// allocation is the lowest clear one.
type bitModel struct {
	used  []bool
	taken []uint64 // bits the test allocated, which it may free
}

func (m *bitModel) lowest() (uint64, bool) {
	i := slices.Index(m.used, false)
	return uint64(i), i >= 0
}

func (m *bitModel) free() uint64 {
	var n uint64
	for _, u := range m.used {
		if !u {
			n++
		}
	}
	return n
}

// TestAllocatorMatchesFirstFitModel runs seeded allocations and frees
// of blocks and inodes against the lowest-clear-bit model: every
// allocation must return the model's bit, and ENOSPC exactly when the
// model is full. The block size is a multiple of 4 but not of 8, so
// each bitmap block ends in half a word; both bitmaps span several
// blocks, and the inode count is not a multiple of 64. The run goes
// through buffer-cache restarts and remounts, after which the
// allocator must still pick the same bits, and checks Statfs against
// the model's free counts.
func TestAllocatorMatchesFirstFitModel(t *testing.T) {
	const bs, blocks, inodes = 132, 6000, 2500
	dev := blockdev.New(blockdev.Config{Blocks: blocks, BlockSize: bs, Rng: kbase.NewRng(3)})
	geo, err := Mkfs(dev, MkfsOptions{InodeCount: inodes})
	if err != kbase.EOK {
		t.Fatalf("Mkfs: %v", err)
	}
	if geo.SB.BBMBlocks < 2 || geo.SB.IBMBlocks < 2 {
		t.Fatalf("bitmaps of %d and %d blocks cross no block boundary", geo.SB.BBMBlocks, geo.SB.IBMBlocks)
	}
	_, task, inst := dcMount(t, dev, false)

	blockM := &bitModel{used: make([]bool, blocks)}
	for b := range geo.SB.DataStart {
		blockM.used[b] = true
	}
	inodeM := &bitModel{used: make([]bool, inodes)}
	inodeM.used[0] = true // the root directory

	type side struct {
		name  string
		m     *bitModel
		alloc func(*fsInstance) (uint64, kbase.Errno) // returns the bit index
		free  func(*fsInstance, uint64) kbase.Errno
	}
	sides := []side{
		{"block", blockM,
			func(inst *fsInstance) (uint64, kbase.Errno) {
				h := inst.begin()
				defer h.Stop()
				return inst.allocBlock(task, h)
			},
			func(inst *fsInstance, bit uint64) kbase.Errno {
				h := inst.begin()
				defer h.Stop()
				return inst.freeBlock(task, h, bit)
			}},
		{"inode", inodeM,
			func(inst *fsInstance) (uint64, kbase.Errno) {
				h := inst.begin()
				defer h.Stop()
				ino, err := inst.allocIno(task, h)
				return ino - 1, err
			},
			func(inst *fsInstance, bit uint64) kbase.Errno {
				h := inst.begin()
				defer h.Stop()
				return inst.freeIno(task, h, bit+1)
			}},
	}

	ops := 0
	commit := func() {
		if ops++; ops%16 == 0 {
			if err := inst.commit(task); err != kbase.EOK {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	alloc := func(s side) bool {
		got, err := s.alloc(inst)
		want, ok := s.m.lowest()
		switch {
		case !ok && err != kbase.ENOSPC:
			t.Fatalf("op %d: %s alloc on a full bitmap = (%d, %v), want ENOSPC", ops, s.name, got, err)
		case ok && (err != kbase.EOK || got != want):
			t.Fatalf("op %d: %s alloc = (%d, %v), want first-fit bit %d", ops, s.name, got, err, want)
		}
		if ok {
			s.m.used[got] = true
			s.m.taken = append(s.m.taken, got)
		}
		commit()
		return ok
	}
	free := func(s side, rng *kbase.Rng) {
		if len(s.m.taken) == 0 {
			return
		}
		i := rng.Intn(len(s.m.taken))
		bit := s.m.taken[i]
		s.m.taken[i] = s.m.taken[len(s.m.taken)-1]
		s.m.taken = s.m.taken[:len(s.m.taken)-1]
		if err := s.free(inst, bit); err != kbase.EOK {
			t.Fatalf("op %d: %s free of bit %d: %v", ops, s.name, bit, err)
		}
		s.m.used[bit] = false
		commit()
	}
	statfs := func(when string) {
		st, err := inst.Statfs(task)
		if err != kbase.EOK || st.FreeBlocks != blockM.free() || st.FreeInodes != inodeM.free() {
			t.Fatalf("%s: Statfs = (%d blocks, %d inodes free, %v), model has %d and %d",
				when, st.FreeBlocks, st.FreeInodes, err, blockM.free(), inodeM.free())
		}
	}

	rng := kbase.NewRng(17)
	statfs("after mkfs")
	for round := range 4 {
		// Churn, then fill both bitmaps until the model is full and the
		// allocator says ENOSPC, then free a random part back.
		for range 1500 {
			s := sides[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				alloc(s)
			} else {
				free(s, rng)
			}
		}
		for _, s := range sides {
			for alloc(s) {
			}
		}
		statfs("full")
		for range 2000 {
			free(sides[rng.Intn(2)], rng)
		}
		statfs("after frees")

		if err := inst.commit(task); err != kbase.EOK {
			t.Fatalf("commit: %v", err)
		}
		switch round {
		case 0: // restart with the bitmaps journal-held
			inst.cache.Invalidate()
		case 1: // restart with the bitmaps written home and clean
			if err := inst.SyncFS(task); err != kbase.EOK {
				t.Fatalf("SyncFS: %v", err)
			}
			inst.cache.Invalidate()
		case 2: // remount: the new instance starts from bit 0
			if err := inst.SyncFS(task); err != kbase.EOK {
				t.Fatalf("SyncFS: %v", err)
			}
			_, task, inst = dcMount(t, dev, false)
		}
		statfs("after restart")
	}
}
