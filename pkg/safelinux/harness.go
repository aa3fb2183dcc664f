// Harness-facing executor over the Kernel surface: the bridge the
// coverage-guided fuzzer (internal/fuzz, cmd/kfuzz) drives. A
// FuzzExec boots one kernel — legacy modules or safe modules — and
// exposes the whole typed surface as slot-addressed operations with
// timing-normalized results: file ops return (errno, count, content
// hash); stream macro-ops drive the network simulation to a terminal
// state (established / EOF / typed reset / provably-idle stall)
// before reporting, so the legacy and safe stacks are compared on
// end-to-end outcomes, never on per-jiffy segment timing — the
// equivalence model the netdiff sweep established.
package safelinux

import (
	"sort"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
)

// Slot counts the harness exposes. internal/fuzz mirrors these in its
// program grammar.
const (
	FuzzFDSlots   = 8
	FuzzConnSlots = 4
	FuzzLstSlots  = 2
)

// Terminal classes for driven stream operations.
const (
	FuzzClassNone  uint8 = iota // not a driven op
	FuzzClassOK                 // target reached
	FuzzClassEOF                // clean end of stream
	FuzzClassReset              // typed reset (errno says which)
	FuzzClassStall              // budget exhausted or provably idle
)

// FuzzResult is one op's normalized outcome.
type FuzzResult struct {
	Errno kbase.Errno
	Class uint8
	N     int
	Hash  uint64
}

// FuzzExecConfig sizes a harness kernel.
type FuzzExecConfig struct {
	Seed uint64
	// Safe boots the upgraded configuration (safefs root, safetcp
	// transport); false boots the legacy configuration.
	Safe bool
	// DiskBlocks sizes the root device (default 2048).
	DiskBlocks uint64
	// StepBudget bounds one driven stream op (default 120000 — the
	// netdiff sweep's budget; the idle fast path exits long before
	// this in the common case).
	StepBudget int
}

// FuzzExec drives one kernel through slot-addressed operations.
type FuzzExec struct {
	K    *Kernel
	task *kbase.Task

	budget int
	fds    [FuzzFDSlots]int
	conns  [FuzzConnSlots]net.Stream
	lsts   [FuzzLstSlots]net.StreamListener

	scratch *kio.Engine
}

// NewFuzzExec boots a harness kernel. The link is clean and
// deterministic (Delay 1, no loss): fault schedules are explicit
// program ops (partition/heal), never RNG draws, so a program's
// outcome is a pure function of the program.
func NewFuzzExec(cfg FuzzExecConfig) (*FuzzExec, kbase.Errno) {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 2048
	}
	if cfg.StepBudget == 0 {
		cfg.StepBudget = 120000
	}
	k, err := New(Config{
		Seed:         cfg.Seed,
		DiskBlocks:   cfg.DiskBlocks,
		CaptureOops:  true,
		Compartments: true,
		Link:         net.LinkParams{Delay: 1},
	})
	if err != kbase.EOK {
		return nil, err
	}
	if cfg.Safe {
		if err := k.UpgradeFS(); err != kbase.EOK {
			k.Close()
			return nil, err
		}
		if err := k.UpgradeTCP(); err != kbase.EOK {
			k.Close()
			return nil, err
		}
	}
	x := &FuzzExec{K: k, task: k.Task, budget: cfg.StepBudget}
	for i := range x.fds {
		x.fds[i] = -1
	}
	return x, kbase.EOK
}

// Close settles the containment plane and shuts the kernel down.
func (x *FuzzExec) Close() {
	if x.scratch != nil {
		x.scratch.Close()
	}
	x.K.Close()
}

// Settle waits for any in-flight compartment restarts so the caller
// can take deterministic snapshots (coverage, oops counts).
func (x *FuzzExec) Settle() {
	if x.K.Plane != nil {
		x.K.Plane.Settle()
	}
}

// fuzzHash is FNV-1a over a byte slice — the content fingerprint both
// legs are compared on.
func fuzzHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h = h * 1099511628211
	}
	return h
}

func hashMix(h, v uint64) uint64 {
	h ^= v
	return h * 1099511628211
}

// seededBytes fills a fresh buffer of n bytes from seed.
func seededBytes(seed uint32, n int) []byte {
	b := make([]byte, n)
	kbase.NewRng(uint64(seed) + 1).Bytes(b)
	return b
}

// --- file ops ---

// Open opens path into fd slot.
func (x *FuzzExec) Open(slot int, path string, flags int) FuzzResult {
	fd, err := x.K.VFS.Open(x.task, path, flags)
	if err == kbase.EOK {
		x.fds[slot] = fd
	}
	return FuzzResult{Errno: err}
}

// CloseFD closes the fd slot (freeing the slot even on error).
func (x *FuzzExec) CloseFD(slot int) FuzzResult {
	fd := x.fds[slot]
	x.fds[slot] = -1
	if fd < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	return FuzzResult{Errno: x.K.VFS.CloseAs(x.task, fd)}
}

// Read does a cursor read of n bytes.
func (x *FuzzExec) Read(slot, n int) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	buf := make([]byte, n)
	got, err := x.K.VFS.Read(x.task, x.fds[slot], buf)
	return FuzzResult{Errno: err, N: got, Hash: fuzzHash(buf[:max(got, 0)])}
}

// Write does a cursor write of n seeded bytes.
func (x *FuzzExec) Write(slot, n int, seed uint32) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	wrote, err := x.K.VFS.Write(x.task, x.fds[slot], seededBytes(seed, n))
	return FuzzResult{Errno: err, N: wrote}
}

// Pread reads n bytes at off.
func (x *FuzzExec) Pread(slot, n int, off int64) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	buf := make([]byte, n)
	got, err := x.K.VFS.Pread(x.task, x.fds[slot], buf, off)
	return FuzzResult{Errno: err, N: got, Hash: fuzzHash(buf[:max(got, 0)])}
}

// Pwrite writes n seeded bytes at off.
func (x *FuzzExec) Pwrite(slot, n int, off int64, seed uint32) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	wrote, err := x.K.VFS.Pwrite(x.task, x.fds[slot], seededBytes(seed, n), off)
	return FuzzResult{Errno: err, N: wrote}
}

// Lseek repositions the fd cursor.
func (x *FuzzExec) Lseek(slot int, off int64, whence int) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	pos, err := x.K.VFS.Lseek(x.task, x.fds[slot], off, whence)
	return FuzzResult{Errno: err, N: int(pos)}
}

// Fsync syncs the fd.
func (x *FuzzExec) Fsync(slot int) FuzzResult {
	if x.fds[slot] < 0 {
		return FuzzResult{Errno: kbase.EBADF}
	}
	return FuzzResult{Errno: x.K.VFS.Fsync(x.task, x.fds[slot])}
}

// --- namespace ops ---

// Mkdir creates a directory.
func (x *FuzzExec) Mkdir(path string) FuzzResult {
	return FuzzResult{Errno: x.K.VFS.Mkdir(x.task, path)}
}

// Rmdir removes a directory.
func (x *FuzzExec) Rmdir(path string) FuzzResult {
	return FuzzResult{Errno: x.K.VFS.Rmdir(x.task, path)}
}

// Unlink removes a file.
func (x *FuzzExec) Unlink(path string) FuzzResult {
	return FuzzResult{Errno: x.K.VFS.Unlink(x.task, path)}
}

// Rename moves oldPath to newPath.
func (x *FuzzExec) Rename(oldPath, newPath string) FuzzResult {
	return FuzzResult{Errno: x.K.VFS.Rename(x.task, oldPath, newPath)}
}

// Truncate resizes path.
func (x *FuzzExec) Truncate(path string, size int64) FuzzResult {
	return FuzzResult{Errno: x.K.VFS.Truncate(x.task, path, size)}
}

// ReadDir lists path; the result hash covers the sorted (name, dir?)
// pairs so listing order is not part of the comparison surface.
func (x *FuzzExec) ReadDir(path string) FuzzResult {
	ents, err := x.K.VFS.ReadDir(x.task, path)
	names := make([]string, len(ents))
	for i, e := range ents {
		kind := "f"
		if e.Mode.IsDir() {
			kind = "d"
		}
		names[i] = e.Name + ":" + kind
	}
	sort.Strings(names)
	h := uint64(14695981039346656037)
	for _, n := range names {
		h = hashMix(h, fuzzHash([]byte(n)))
	}
	return FuzzResult{Errno: err, N: len(ents), Hash: h}
}

// Stat stats path; only size and directory-ness are compared (inode
// numbers and timestamps are implementation-specific).
func (x *FuzzExec) Stat(path string) FuzzResult {
	st, err := x.K.VFS.Stat(x.task, path)
	r := FuzzResult{Errno: err, N: int(st.Size)}
	if st.Mode.IsDir() {
		// A directory's st_size is implementation-defined (dirent
		// bytes in extlike, 0 in safefs) — like inode numbers, it is
		// not comparable across modules. Keep only the kind marker.
		r.Hash = 1
		r.N = 0
	}
	return r
}

// SyncAll flushes every dirty buffer and the journal.
func (x *FuzzExec) SyncAll() FuzzResult {
	return FuzzResult{Errno: x.K.VFS.SyncAll(x.task)}
}

// --- stream ops ---

// FuzzPort maps a listener slot to its fixed port.
func FuzzPort(lslot int) uint16 { return uint16(7100 + lslot) }

// netIdle reports that nothing can change without new input: no
// packets in flight and no timer armed on either stack. This is the
// early exit that makes driven ops cheap — the C1M plane's
// no-idle-timers property is what makes it sound.
func (x *FuzzExec) netIdle() bool {
	if x.K.Sim.InFlight() != 0 {
		return false
	}
	hA, hB := x.K.Hosts()
	if hA.TimerCount() != 0 || hB.TimerCount() != 0 {
		return false
	}
	if epA, epB := x.K.SafeEndpoints(); epA != nil {
		if epA.TimerCount() != 0 || epB.TimerCount() != 0 {
			return false
		}
	}
	return true
}

// drive steps the simulation until done reports true, the network is
// provably idle, or the budget runs out. Returns whether done held.
func (x *FuzzExec) drive(done func() bool) bool {
	if done() {
		return true
	}
	for i := 0; i < x.budget; i++ {
		x.K.Sim.Step()
		if done() {
			return true
		}
		if x.netIdle() {
			return done()
		}
	}
	return false
}

// Listen opens the slot's fixed port on host B through whichever
// stack is installed.
func (x *FuzzExec) Listen(lslot int) FuzzResult {
	_, b := x.K.streamStacks()
	l, err := b.ListenStream(FuzzPort(lslot))
	if err == kbase.EOK {
		x.lsts[lslot] = l
	}
	return FuzzResult{Errno: err}
}

// CloseLst closes the listener slot.
func (x *FuzzExec) CloseLst(lslot int) FuzzResult {
	l := x.lsts[lslot]
	x.lsts[lslot] = nil
	if l == nil {
		return FuzzResult{Errno: kbase.EINVAL}
	}
	return FuzzResult{Errno: l.Close()}
}

// Connect dials the port of listener slot lslot from host A and
// drives to a terminal state: established (EOK), typed refusal/reset,
// or stall.
func (x *FuzzExec) Connect(cslot, lslot int) FuzzResult {
	a, _ := x.K.streamStacks()
	_, hB := x.K.Hosts()
	c, err := a.DialStream(hB.Addr(), FuzzPort(lslot))
	if err != kbase.EOK {
		return FuzzResult{Errno: err, Class: FuzzClassReset}
	}
	ok := x.drive(func() bool {
		return c.Established() || c.Closed() || c.ResetErrno() != kbase.EOK
	})
	if c.Established() {
		x.conns[cslot] = c
		return FuzzResult{Errno: kbase.EOK, Class: FuzzClassOK}
	}
	if e := c.ResetErrno(); e != kbase.EOK {
		return FuzzResult{Errno: e, Class: FuzzClassReset}
	}
	if !ok {
		return FuzzResult{Errno: kbase.ETIMEDOUT, Class: FuzzClassStall}
	}
	return FuzzResult{Errno: kbase.ECONNRESET, Class: FuzzClassReset}
}

// Accept drives until the listener yields a connection or the network
// goes idle (no connection will ever arrive: EAGAIN).
func (x *FuzzExec) Accept(cslot, lslot int) FuzzResult {
	l := x.lsts[lslot]
	if l == nil {
		return FuzzResult{Errno: kbase.EINVAL}
	}
	var c net.Stream
	var lastErr kbase.Errno
	x.drive(func() bool {
		if c == nil {
			c, lastErr = l.AcceptStream()
		}
		return c != nil
	})
	if c == nil {
		if lastErr == kbase.EOK {
			lastErr = kbase.EAGAIN
		}
		return FuzzResult{Errno: lastErr, Class: FuzzClassStall}
	}
	x.conns[cslot] = c
	return FuzzResult{Errno: kbase.EOK, Class: FuzzClassOK}
}

// Send queues n seeded bytes on the connection (delivery is driven by
// later Recv/Step ops).
func (x *FuzzExec) Send(cslot, n int, seed uint32) FuzzResult {
	c := x.conns[cslot]
	if c == nil {
		return FuzzResult{Errno: kbase.ENOTCONN}
	}
	err := c.Send(seededBytes(seed, n))
	r := FuzzResult{Errno: err}
	if err == kbase.EOK {
		r.N = n
	}
	return r
}

// Recv drives until n bytes arrived, the stream ended (EOF), a typed
// reset surfaced, or the network went provably idle. Byte counts and
// content hashes are compared only for the OK and EOF classes — a
// stalled transfer's partial count is timing, not semantics.
func (x *FuzzExec) Recv(cslot, n int) FuzzResult {
	c := x.conns[cslot]
	if c == nil {
		return FuzzResult{Errno: kbase.ENOTCONN}
	}
	got := make([]byte, 0, n)
	buf := make([]byte, 2048)
	var terminal kbase.Errno = kbase.EAGAIN
	x.drive(func() bool {
		for len(got) < n {
			want := min(len(buf), n-len(got))
			m, e := c.Recv(buf[:want])
			if m > 0 {
				got = append(got, buf[:m]...)
				continue
			}
			if e == kbase.EAGAIN {
				terminal = kbase.EAGAIN
				return false
			}
			// (0, EOK) is clean EOF; anything else a typed reset.
			terminal = e
			return true
		}
		return true
	})
	switch {
	case len(got) >= n:
		return FuzzResult{Errno: kbase.EOK, Class: FuzzClassOK, N: len(got), Hash: fuzzHash(got)}
	case terminal == kbase.EOK:
		return FuzzResult{Errno: kbase.EOK, Class: FuzzClassEOF, N: len(got), Hash: fuzzHash(got)}
	case terminal != kbase.EAGAIN:
		return FuzzResult{Errno: terminal, Class: FuzzClassReset}
	default:
		return FuzzResult{Errno: kbase.ETIMEDOUT, Class: FuzzClassStall}
	}
}

// CloseConn closes the connection slot.
func (x *FuzzExec) CloseConn(cslot int) FuzzResult {
	c := x.conns[cslot]
	x.conns[cslot] = nil
	if c == nil {
		return FuzzResult{Errno: kbase.ENOTCONN}
	}
	return FuzzResult{Errno: c.Close()}
}

// StepNet advances the simulation n jiffies.
func (x *FuzzExec) StepNet(n int) FuzzResult {
	x.K.Sim.Run(n)
	return FuzzResult{Errno: kbase.EOK, N: n}
}

// Partition cuts the inter-host link.
func (x *FuzzExec) Partition(oneWay bool) FuzzResult {
	x.K.PartitionNet(oneWay)
	return FuzzResult{Errno: kbase.EOK}
}

// Heal restores the link.
func (x *FuzzExec) Heal() FuzzResult {
	x.K.HealNet()
	return FuzzResult{Errno: kbase.EOK}
}

// --- async block I/O ---

const scratchBlocks = 64

// KioBatch submits a seeded batch of reads, writes and barriers to a
// scratch kio engine (its own 64-block device — never the root
// volume, whose layout is module-specific). The result hash folds the
// enqueue errnos, then the per-SQE errnos in submit order.
func (x *FuzzExec) KioBatch(nOps int, seed uint32) FuzzResult {
	if x.scratch == nil {
		x.scratch = kio.New(blockdev.New(blockdev.Config{
			Blocks: scratchBlocks, BlockSize: 512,
			Rng: kbase.NewRng(7),
		}))
	}
	rng := kbase.NewRng(uint64(seed) + 2)
	b := x.scratch.NewBatch()
	data := make([]byte, 512)
	var enq []kbase.Errno
	for i := 0; i < nOps; i++ {
		block := uint64(rng.Intn(scratchBlocks + 2)) // +2: out-of-range EINVAL corner
		switch rng.Intn(4) {
		case 0:
			enq = append(enq, b.Read(block, make([]byte, 512), uint64(i)))
		case 1, 2:
			rng.Bytes(data)
			enq = append(enq, b.Write(block, data, uint64(i)))
		case 3:
			b.Barrier(uint64(i))
			enq = append(enq, kbase.EOK)
		}
	}
	cqes := b.Submit().Wait()
	h := uint64(14695981039346656037)
	for _, e := range enq {
		h = hashMix(h, uint64(e))
	}
	for _, c := range cqes {
		h = hashMix(h, c.User<<8|uint64(c.Err))
	}
	return FuzzResult{Errno: kbase.EOK, N: len(cqes), Hash: h}
}

// --- live module replacement ---

// HotSwapFS swaps the root file system to safefs on the running
// kernel (modal: EALREADY on a safe-boot leg; open fds migrate).
func (x *FuzzExec) HotSwapFS() FuzzResult {
	return FuzzResult{Errno: x.K.HotSwap("fs", safefs.Module{})}
}

// HotSwapNet swaps the stream transport to safetcp (modal; the
// program grammar guarantees no live streams at this point).
func (x *FuzzExec) HotSwapNet() FuzzResult {
	return FuzzResult{Errno: x.K.HotSwap("net", safetcp.Module{})}
}

// --- end-of-program accounting ---

// FSDigest walks the tree and folds (path, kind, size, content hash)
// of every entry in sorted order — the end-state equivalence check.
// Walk errors fold into the digest too: both legs must fail alike.
func (x *FuzzExec) FSDigest() uint64 {
	h := uint64(14695981039346656037)
	var walk func(path string)
	walk = func(path string) {
		ents, err := x.K.VFS.ReadDir(x.task, path)
		h = hashMix(h, uint64(err))
		names := make([]string, len(ents))
		byName := make(map[string]vfs.DirEntry, len(ents))
		for i, e := range ents {
			names[i] = e.Name
			byName[e.Name] = e
		}
		sort.Strings(names)
		for _, name := range names {
			e := byName[name]
			child := path + "/" + name
			if path == "/" {
				child = "/" + name
			}
			h = hashMix(h, fuzzHash([]byte(child)))
			if e.Mode.IsDir() {
				h = hashMix(h, 'd')
				walk(child)
				continue
			}
			st, err := x.K.VFS.Stat(x.task, child)
			h = hashMix(h, uint64(err))
			if err != kbase.EOK {
				continue
			}
			h = hashMix(h, uint64(st.Size))
			fd, err := x.K.VFS.Open(x.task, child, vfs.ORdOnly)
			h = hashMix(h, uint64(err))
			if err != kbase.EOK {
				continue
			}
			buf := make([]byte, st.Size)
			n, err := x.K.VFS.Pread(x.task, fd, buf, 0)
			_ = x.K.VFS.CloseAs(x.task, fd) // read-only digest fd
			h = hashMix(h, uint64(err))
			h = hashMix(h, fuzzHash(buf[:max(n, 0)]))
		}
	}
	walk("/")
	return h
}

// Oopses summarizes recorded kernel failures as "kind module" lines
// in capture order (messages are implementation-specific and not
// compared).
func (x *FuzzExec) Oopses() []string {
	evs := x.K.Recorder.Events()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = string(e.Kind) + " " + e.Module
	}
	return out
}

// Violations returns the ownership checker's recorded violation
// count.
func (x *FuzzExec) Violations() int { return x.K.Checker.Count() }
