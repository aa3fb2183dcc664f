package extlike

import (
	"fmt"
	"strings"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/journal"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// Offline consistency checking (e2fsck for the simulated kernel).
// Fsck replays the journal, walks the directory tree from the root
// inode marking every reachable inode and block (checking each
// directory's record chain on the way: rec_len bounds and alignment, no
// record crossing a block, every block covered exactly; an unused
// record, ino 0, is not an entry), and cross-checks the
// reachability sets against the allocation bitmaps. The two
// interesting divergences mirror real fsck findings:
//
//   - leaked: marked allocated but unreachable (CWE-401 at the FS
//     level: an unlinked file still open at a crash leaves one, since
//     extlike keeps no orphan list);
//   - lost: reachable but marked free (double-allocation corruption
//     waiting to happen).

// FsckReport is the result of one check.
type FsckReport struct {
	Inodes        uint64 // reachable inodes (incl. root)
	Blocks        uint64 // reachable data+indirect blocks
	LeakedBlocks  []uint64
	LostBlocks    []uint64
	LeakedInodes  []uint64
	LostInodes    []uint64
	Problems      []string // structural corruption descriptions
	JournalReplay int
}

// Clean reports whether the volume is fully consistent.
func (r FsckReport) Clean() bool {
	return len(r.LeakedBlocks) == 0 && len(r.LostBlocks) == 0 &&
		len(r.LeakedInodes) == 0 && len(r.LostInodes) == 0 && len(r.Problems) == 0
}

// Summary renders a one-line verdict plus details.
func (r FsckReport) Summary() string {
	var b strings.Builder
	verdict := "clean"
	if !r.Clean() {
		verdict = "INCONSISTENT"
	}
	fmt.Fprintf(&b, "fsck: %s — %d inodes, %d blocks reachable, %d journal txns replayed\n",
		verdict, r.Inodes, r.Blocks, r.JournalReplay)
	if n := len(r.LeakedBlocks); n > 0 {
		fmt.Fprintf(&b, "  %d leaked blocks (allocated, unreachable): %v\n", n, clip(r.LeakedBlocks))
	}
	if n := len(r.LostBlocks); n > 0 {
		fmt.Fprintf(&b, "  %d lost blocks (reachable, marked free): %v\n", n, clip(r.LostBlocks))
	}
	if n := len(r.LeakedInodes); n > 0 {
		fmt.Fprintf(&b, "  %d leaked inodes: %v\n", n, clip(r.LeakedInodes))
	}
	if n := len(r.LostInodes); n > 0 {
		fmt.Fprintf(&b, "  %d lost inodes: %v\n", n, clip(r.LostInodes))
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  problem: %s\n", p)
	}
	return b.String()
}

func clip(v []uint64) []uint64 {
	if len(v) > 8 {
		return v[:8]
	}
	return v
}

// Fsck checks the extlike volume on dev. The device must not be
// mounted. The journal is replayed first so the check sees the
// post-recovery state, exactly as e2fsck does.
func Fsck(dev *blockdev.Device) (FsckReport, kbase.Errno) {
	var rep FsckReport
	geo, err := readGeometry(dev)
	if err != kbase.EOK {
		return rep, err
	}
	cache := bufcache.NewCache(dev, 0)
	jnl := journal.New(cache, geo.SB.JournalStart, geo.SB.JournalLen)
	replayed, err := jnl.Recover()
	if err != kbase.EOK {
		return rep, err
	}
	rep.JournalReplay = replayed

	inst := &fsInstance{
		cache: cache, jnl: jnl, geo: geo,
		inodes: make(map[uint64]*vfs.Inode),
	}

	// Phase 1: walk the tree, marking reachable inodes and blocks.
	reachableIno := map[uint64]bool{geo.SB.RootIno: true}
	reachableBlk := map[uint64]bool{}
	queue := []uint64{geo.SB.RootIno}
	for len(queue) > 0 {
		ino := queue[0]
		queue = queue[1:]
		di, err := inst.readDiskInode(ino)
		if err != kbase.EOK {
			rep.Problems = append(rep.Problems, fmt.Sprintf("inode %d unreadable: %v", ino, err))
			continue
		}
		if di.Nlink == 0 && ino != geo.SB.RootIno {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("inode %d reachable but nlink=0", ino))
		}
		ei := &einode{ino: ino, di: di}
		// Mark the inode's blocks (direct, indirect tree).
		if err := inst.markBlocks(ei, reachableBlk, &rep); err != kbase.EOK {
			return rep, err
		}
		if di.Mode != modeDirDisk {
			continue
		}
		ents, problem, err := inst.decodeDir(nil, ei)
		if problem != "" {
			rep.Problems = append(rep.Problems, fmt.Sprintf("directory %d: %s", ino, problem))
			continue
		}
		if err != kbase.EOK {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("directory %d unreadable: %v", ino, err))
			continue
		}
		for _, e := range ents {
			if e.Ino == 0 {
				continue // an unused record
			}
			if e.Ino > uint64(geo.SB.InodeCount) {
				rep.Problems = append(rep.Problems,
					fmt.Sprintf("directory %d entry %q points at bad inode %d", ino, e.Name, e.Ino))
				continue
			}
			if !reachableIno[e.Ino] {
				reachableIno[e.Ino] = true
				queue = append(queue, e.Ino)
			}
		}
	}
	rep.Inodes = uint64(len(reachableIno))
	rep.Blocks = uint64(len(reachableBlk))

	// Phase 2: cross-check the bitmaps.
	for blk := geo.SB.DataStart; blk < geo.SB.TotalBlocks; blk++ {
		marked, err := inst.bitmapTest(geo.SB.BBMStart, blk)
		if err != kbase.EOK {
			return rep, err
		}
		switch {
		case marked && !reachableBlk[blk]:
			rep.LeakedBlocks = append(rep.LeakedBlocks, blk)
		case !marked && reachableBlk[blk]:
			rep.LostBlocks = append(rep.LostBlocks, blk)
		}
	}
	for ino := uint64(1); ino <= uint64(geo.SB.InodeCount); ino++ {
		marked, err := inst.bitmapTest(geo.SB.IBMStart, ino-1)
		if err != kbase.EOK {
			return rep, err
		}
		switch {
		case marked && !reachableIno[ino]:
			rep.LeakedInodes = append(rep.LeakedInodes, ino)
		case !marked && reachableIno[ino]:
			rep.LostInodes = append(rep.LostInodes, ino)
		}
	}
	return rep, kbase.EOK
}

// markBlocks records every block an inode references, flagging
// double-references (two files claiming one block).
func (inst *fsInstance) markBlocks(ei *einode, seen map[uint64]bool, rep *FsckReport) kbase.Errno {
	mark := func(blk uint64) {
		if blk == 0 {
			return
		}
		if blk < inst.geo.SB.DataStart || blk >= inst.geo.SB.TotalBlocks {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("inode %d references out-of-area block %d", ei.ino, blk))
			return
		}
		if seen[blk] {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("block %d multiply referenced (inode %d)", blk, ei.ino))
			return
		}
		seen[blk] = true
	}
	for _, blk := range ei.di.Direct {
		mark(blk)
	}
	if ei.di.Indirect != 0 {
		mark(ei.di.Indirect)
		ibh, err := inst.cache.Bread(ei.di.Indirect)
		if err != kbase.EOK {
			return err
		}
		ptrs := int(inst.geo.SB.BlockSize) / 8
		for i := 0; i < ptrs; i++ {
			mark(leU64(ibh.Data[i*8:]))
		}
		_ = ibh.Put() // brelse-style release; over-release is already oopsed
	}
	return kbase.EOK
}

// bitmapTest reads one bit of a bitmap rooted at start.
func (inst *fsInstance) bitmapTest(start, idx uint64) (bool, kbase.Errno) {
	bs := inst.cache.Device().BlockSize()
	bitsPerBlock := uint64(bs) * 8
	bh, err := inst.cache.Bread(start + idx/bitsPerBlock)
	if err != kbase.EOK {
		return false, err
	}
	defer bh.Put()
	byteIdx := (idx % bitsPerBlock) / 8
	return bh.Data[byteIdx]&(1<<(idx%8)) != 0, kbase.EOK
}
