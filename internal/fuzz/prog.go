// Package fuzz is the kernel's coverage-guided syscall fuzzer — the
// third leg of the correctness stack after kerncheck (static) and
// netdiff (directed differential). A Prog is a sequence of typed ops
// over the kernel's whole public surface: VFS calls, stream sockets,
// kio batches, live module hot-swap, and network partitions. Programs
// are generated, mutated and spliced under a seeded RNG, executed
// twice — once on a legacy-module kernel, once on a safe-module
// kernel — and any normalized outcome divergence, ownership
// violation, or oops is a crash. The corpus grows by tracepoint-set
// coverage novelty (ktrace.CoverBitmap), syzkaller-style.
//
// The op grammar is resource-typed: ops name file descriptors,
// connections and listeners by small slot indices, and a program is
// valid only if every use is dominated by a def of that slot (an
// open/connect/listen that has not been closed). Generation keeps
// validity by construction; mutation and splice repair it with Fix.
package fuzz

import (
	"fmt"
	"strconv"
	"strings"
)

// OpKind enumerates the typed operations a program can perform.
type OpKind uint8

// The op grammar. Field use per kind is documented in the table
// opInfo below; unused fields must be zero so serialization is
// canonical.
const (
	// File ops (fd slots).
	OpOpen   OpKind = iota // fd[Slot] = Open(Path, Flags)
	OpClose                // Close(fd[Slot])
	OpRead                 // Read(fd[Slot], Len) — cursor read
	OpWrite                // Write(fd[Slot], Len bytes from Seed) — cursor write
	OpPread                // Pread(fd[Slot], Len, Off)
	OpPwrite               // Pwrite(fd[Slot], Len bytes from Seed, Off)
	OpLseek                // Lseek(fd[Slot], Off, whence=Arg)
	OpFsync                // Fsync(fd[Slot])

	// Namespace ops (paths only).
	OpMkdir    // Mkdir(Path)
	OpRmdir    // Rmdir(Path)
	OpUnlink   // Unlink(Path)
	OpRename   // Rename(Path, Path2)
	OpTruncate // Truncate(Path, Len)
	OpReadDir  // ReadDir(Path)
	OpStat     // Stat(Path)
	OpSyncAll  // SyncAll()

	// Stream ops (conn and listener slots).
	OpListen    // lst[Slot] = Listen(port-of-slot)
	OpCloseLst  // Close(lst[Slot])
	OpConnect   // conn[Slot] = Connect(port-of-lst[Arg]), driven to a terminal state
	OpAccept    // conn[Slot] = Accept(lst[Arg]), driven to a terminal state
	OpSend      // Send(conn[Slot], Len bytes from Seed)
	OpRecv      // Recv(conn[Slot]) until Len bytes / EOF / reset / idle
	OpCloseConn // Close(conn[Slot])

	// Simulation and fault-schedule ops.
	OpStepNet   // advance the network simulation Len jiffies
	OpPartition // cut the inter-host link (Arg=1: one-way)
	OpHeal      // heal the link

	// Async block I/O (scratch kio engine, Len SQEs seeded by Seed).
	OpKioBatch

	// Live module replacement under load (modal: legacy leg swaps,
	// safe leg reports EALREADY — results are not compared).
	OpHotSwapFS
	OpHotSwapNet

	opKindCount // sentinel
)

// Resource-slot counts. Small on purpose: collisions between ops that
// name the same slot are where the interesting sequences live.
const (
	FDSlots   = 8
	ConnSlots = 4
	LstSlots  = 2

	// MaxOps bounds program length (splice output is truncated here).
	MaxOps = 32
	// MaxIOLen bounds one read/write/send/recv length.
	MaxIOLen = 4096
	// MaxOff bounds file offsets so campaigns stay inside the small
	// fuzz volumes (sparse-extension corners included).
	MaxOff = 4 * 4096
	// MaxSteps bounds one OpStepNet advance.
	MaxSteps = 256
)

// opTraits describes one kind's field usage and resource effects.
type opTraits struct {
	name    string
	defFD   bool // defines fd[Slot]
	useFD   bool // uses fd[Slot]
	killFD  bool // frees fd[Slot]
	defConn bool // defines conn[Slot]
	useConn bool
	killCon bool
	defLst  bool // defines lst[Slot]
	useLst  bool // uses lst[Arg]
	killLst bool // frees lst[Slot]
	path    bool // uses Path
	path2   bool // uses Path2
	modal   bool // results are mode-dependent and not compared
}

var opInfo = [opKindCount]opTraits{
	OpOpen:       {name: "open", defFD: true, path: true},
	OpClose:      {name: "close", useFD: true, killFD: true},
	OpRead:       {name: "read", useFD: true},
	OpWrite:      {name: "write", useFD: true},
	OpPread:      {name: "pread", useFD: true},
	OpPwrite:     {name: "pwrite", useFD: true},
	OpLseek:      {name: "lseek", useFD: true},
	OpFsync:      {name: "fsync", useFD: true},
	OpMkdir:      {name: "mkdir", path: true},
	OpRmdir:      {name: "rmdir", path: true},
	OpUnlink:     {name: "unlink", path: true},
	OpRename:     {name: "rename", path: true, path2: true},
	OpTruncate:   {name: "truncate", path: true},
	OpReadDir:    {name: "readdir", path: true},
	OpStat:       {name: "stat", path: true},
	OpSyncAll:    {name: "syncall"},
	OpListen:     {name: "listen", defLst: true},
	OpCloseLst:   {name: "lclose", killLst: true},
	OpConnect:    {name: "connect", defConn: true, useLst: true},
	OpAccept:     {name: "accept", defConn: true, useLst: true},
	OpSend:       {name: "send", useConn: true},
	OpRecv:       {name: "recv", useConn: true},
	OpCloseConn:  {name: "cclose", useConn: true, killCon: true},
	OpStepNet:    {name: "step"},
	OpPartition:  {name: "partition"},
	OpHeal:       {name: "heal"},
	OpKioBatch:   {name: "kio"},
	OpHotSwapFS:  {name: "swapfs", modal: true},
	OpHotSwapNet: {name: "swapnet", modal: true},
}

// Name returns the kind's wire name.
func (k OpKind) Name() string {
	if int(k) < len(opInfo) {
		return opInfo[k].name
	}
	return fmt.Sprintf("op%d", int(k))
}

// Modal reports whether the kind's results are mode-dependent (and so
// excluded from differential comparison).
func (k OpKind) Modal() bool { return opInfo[k].modal }

// Op is one typed operation. Fields are interpreted per kind; unused
// fields are zero.
type Op struct {
	Kind  OpKind
	Slot  int    // primary resource slot
	Arg   int    // secondary: listener slot / whence / one-way flag
	Path  string // primary path
	Path2 string // rename destination
	Len   int    // byte count / truncate size / step count / SQE count
	Off   int64  // file offset
	Flags int    // open flags
	Seed  uint32 // payload content seed
}

// Prog is one fuzz program.
type Prog struct {
	Ops []Op
}

// Paths is the fixed path universe programs draw from: a small tree
// with nested directories so rename/rmdir/unlink hit non-trivial
// shapes. Ops may name any path for any op — wrong-type errnos are
// part of the differential surface.
var Paths = []string{
	"/f0", "/f1", "/f2",
	"/d0", "/d0/f3", "/d0/f4",
	"/d0/d1", "/d0/d1/f5",
	"/d2", "/d2/f6",
}

// OpenFlagSets are the open-flag combinations generation draws from.
var OpenFlagSets = []int{
	0x0,                // ORdOnly
	0x1,                // OWrOnly
	0x2,                // ORdWr
	0x1 | 0x40,         // OWrOnly|OCreate
	0x1 | 0x40 | 0x80,  // OWrOnly|OCreate|OExcl
	0x1 | 0x40 | 0x200, // OWrOnly|OCreate|OTrunc
	0x2 | 0x40,         // ORdWr|OCreate
	0x1 | 0x400,        // OWrOnly|OAppend
	0x1 | 0x40 | 0x400, // OWrOnly|OCreate|OAppend
	0x0 | 0x200,        // ORdOnly|OTrunc — a classic corner
}

// live tracks static resource liveness while walking a program.
type live struct {
	fd   [FDSlots]bool
	conn [ConnSlots]bool
	lst  [LstSlots]bool
}

func (l *live) anyStream() bool {
	for _, b := range l.conn {
		if b {
			return true
		}
	}
	for _, b := range l.lst {
		if b {
			return true
		}
	}
	return false
}

// admissible reports whether op is valid in state l (without applying
// its effects).
func (l *live) admissible(op Op) bool {
	t := opInfo[op.Kind]
	switch {
	case t.defFD:
		if op.Slot < 0 || op.Slot >= FDSlots || l.fd[op.Slot] {
			return false
		}
	case t.useFD:
		if op.Slot < 0 || op.Slot >= FDSlots || !l.fd[op.Slot] {
			return false
		}
	case t.defConn:
		if op.Slot < 0 || op.Slot >= ConnSlots || l.conn[op.Slot] {
			return false
		}
		if op.Arg < 0 || op.Arg >= LstSlots || !l.lst[op.Arg] {
			return false
		}
	case t.useConn:
		if op.Slot < 0 || op.Slot >= ConnSlots || !l.conn[op.Slot] {
			return false
		}
	case t.defLst:
		if op.Slot < 0 || op.Slot >= LstSlots || l.lst[op.Slot] {
			return false
		}
	case t.killLst:
		if op.Slot < 0 || op.Slot >= LstSlots || !l.lst[op.Slot] {
			return false
		}
	}
	if op.Kind == OpHotSwapNet && l.anyStream() {
		// A net hot-swap re-routes all TCP dispatch to the new stack;
		// connections opened on the old stack would silently starve.
		// The kernel drains in-flight operations, and the fuzzer's
		// contract is StreamRoundTrip's: swap between interactions.
		return false
	}
	if t.path && op.Path == "" {
		return false
	}
	if t.path2 && op.Path2 == "" {
		return false
	}
	return true
}

// apply mutates l with op's resource effects.
func (l *live) apply(op Op) {
	t := opInfo[op.Kind]
	switch {
	case t.defFD:
		l.fd[op.Slot] = true
	case t.killFD:
		l.fd[op.Slot] = false
	case t.defConn:
		l.conn[op.Slot] = true
	case t.killCon:
		l.conn[op.Slot] = false
	case t.defLst:
		l.lst[op.Slot] = true
	case t.killLst:
		l.lst[op.Slot] = false
	}
}

// Validate checks the program: every use dominated by a def, slots in
// range, lengths bounded, length under MaxOps.
func (p *Prog) Validate() error {
	if len(p.Ops) > MaxOps {
		return fmt.Errorf("program has %d ops, max %d", len(p.Ops), MaxOps)
	}
	var l live
	for i, op := range p.Ops {
		if int(op.Kind) >= int(opKindCount) {
			return fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
		if !l.admissible(op) {
			return fmt.Errorf("op %d (%s slot=%d arg=%d): references an undefined or conflicting resource",
				i, op.Kind.Name(), op.Slot, op.Arg)
		}
		if op.Len < 0 || op.Len > MaxIOLen*4 {
			return fmt.Errorf("op %d (%s): len %d out of range", i, op.Kind.Name(), op.Len)
		}
		if op.Off < 0 || op.Off > MaxOff {
			return fmt.Errorf("op %d (%s): off %d out of range", i, op.Kind.Name(), op.Off)
		}
		l.apply(op)
	}
	return nil
}

// Valid reports whether the program passes Validate.
func (p *Prog) Valid() bool { return p.Validate() == nil }

// Fix drops every op that is invalid in the state produced by the
// kept prefix — the repair pass mutation and splice rely on. Removing
// a def cascades: later uses of the now-dead slot drop too. The
// result is always valid.
func (p *Prog) Fix() {
	var l live
	kept := p.Ops[:0]
	for _, op := range p.Ops {
		if len(kept) >= MaxOps {
			break
		}
		if int(op.Kind) >= int(opKindCount) || !l.admissible(op) {
			continue
		}
		if op.Len < 0 || op.Len > MaxIOLen*4 || op.Off < 0 || op.Off > MaxOff {
			continue
		}
		l.apply(op)
		kept = append(kept, op)
	}
	p.Ops = kept
}

// Clone deep-copies the program.
func (p *Prog) Clone() *Prog {
	q := &Prog{Ops: make([]Op, len(p.Ops))}
	copy(q.Ops, p.Ops)
	return q
}

// WithoutOp returns a valid copy of p with op i removed (dependents
// of a removed def are dropped by Fix).
func (p *Prog) WithoutOp(i int) *Prog {
	q := &Prog{Ops: make([]Op, 0, len(p.Ops)-1)}
	q.Ops = append(q.Ops, p.Ops[:i]...)
	q.Ops = append(q.Ops, p.Ops[i+1:]...)
	q.Fix()
	return q
}

// String renders the program in its canonical one-op-per-line wire
// form, parseable by ParseProg.
func (p *Prog) String() string {
	var b strings.Builder
	for _, op := range p.Ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders one op: the kind name followed by the non-zero
// fields in fixed order.
func (op Op) String() string {
	var b strings.Builder
	b.WriteString(op.Kind.Name())
	wr := func(k string, v any) { fmt.Fprintf(&b, " %s=%v", k, v) }
	if op.Slot != 0 {
		wr("slot", op.Slot)
	}
	if op.Arg != 0 {
		wr("arg", op.Arg)
	}
	if op.Path != "" {
		wr("path", op.Path)
	}
	if op.Path2 != "" {
		wr("path2", op.Path2)
	}
	if op.Len != 0 {
		wr("len", op.Len)
	}
	if op.Off != 0 {
		wr("off", op.Off)
	}
	if op.Flags != 0 {
		wr("flags", op.Flags)
	}
	if op.Seed != 0 {
		wr("seed", op.Seed)
	}
	return b.String()
}

var kindByName = func() map[string]OpKind {
	m := make(map[string]OpKind, opKindCount)
	for k := OpKind(0); k < opKindCount; k++ {
		m[k.Name()] = k
	}
	return m
}()

// ParseProg parses the wire form produced by Prog.String. Blank lines
// and '#' comments are skipped. The parsed program is validated.
func ParseProg(text string) (*Prog, error) {
	p := &Prog{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kind, ok := kindByName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("line %d: unknown op %q", ln+1, fields[0])
		}
		op := Op{Kind: kind}
		for _, f := range fields[1:] {
			eq := strings.IndexByte(f, '=')
			if eq < 0 {
				return nil, fmt.Errorf("line %d: malformed field %q", ln+1, f)
			}
			key, val := f[:eq], f[eq+1:]
			var err error
			switch key {
			case "slot":
				op.Slot, err = strconv.Atoi(val)
			case "arg":
				op.Arg, err = strconv.Atoi(val)
			case "path":
				op.Path = val
			case "path2":
				op.Path2 = val
			case "len":
				op.Len, err = strconv.Atoi(val)
			case "off":
				op.Off, err = strconv.ParseInt(val, 10, 64)
			case "flags":
				op.Flags, err = strconv.Atoi(val)
			case "seed":
				var u uint64
				u, err = strconv.ParseUint(val, 10, 32)
				op.Seed = uint32(u)
			default:
				return nil, fmt.Errorf("line %d: unknown field %q", ln+1, key)
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: field %q: %v", ln+1, f, err)
			}
		}
		p.Ops = append(p.Ops, op)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
