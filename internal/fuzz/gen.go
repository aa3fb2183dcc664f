package fuzz

import (
	"safelinux/internal/linuxlike/kbase"
)

// Seeded program generation, mutation and splice. Everything here is
// driven by a kbase.Rng the caller owns, so a campaign's whole input
// stream is a pure function of its seed — the determinism the replay
// and smoke gates pin.

// genWeights weights kind selection during generation. File and
// stream traffic dominate; fault-schedule and swap ops are the rare
// spice that opens new coverage frontiers.
var genWeights = [opKindCount]int{
	OpOpen: 14, OpClose: 6, OpRead: 6, OpWrite: 8, OpPread: 6,
	OpPwrite: 8, OpLseek: 4, OpFsync: 3,
	OpMkdir: 6, OpRmdir: 3, OpUnlink: 4, OpRename: 5, OpTruncate: 4,
	OpReadDir: 3, OpStat: 3, OpSyncAll: 2,
	OpListen: 8, OpCloseLst: 2, OpConnect: 8, OpAccept: 6,
	OpSend: 8, OpRecv: 8, OpCloseConn: 4,
	OpStepNet: 4, OpPartition: 2, OpHeal: 2,
	OpKioBatch:  3,
	OpHotSwapFS: 2, OpHotSwapNet: 2,
}

// pickKind draws an admissible kind by weight from w, or returns
// false when nothing is admissible (cannot happen with genWeights:
// path-only ops always are).
func pickKind(rng *kbase.Rng, l *live, w *[opKindCount]int) (OpKind, bool) {
	total := 0
	var feasible [opKindCount]bool
	for k := OpKind(0); k < opKindCount; k++ {
		if w[k] == 0 {
			continue
		}
		if kindFeasible(k, l) {
			feasible[k] = true
			total += w[k]
		}
	}
	if total == 0 {
		return 0, false
	}
	d := rng.Intn(total)
	for k := OpKind(0); k < opKindCount; k++ {
		if !feasible[k] {
			continue
		}
		if d < w[k] {
			return k, true
		}
		d -= w[k]
	}
	return 0, false
}

// kindFeasible reports whether state l has room for an op of kind k
// (some slot assignment exists that admissible would accept).
func kindFeasible(k OpKind, l *live) bool {
	t := opInfo[k]
	any := func(b []bool, want bool) bool {
		for _, v := range b {
			if v == want {
				return true
			}
		}
		return false
	}
	switch {
	case t.defFD:
		return any(l.fd[:], false)
	case t.useFD:
		return any(l.fd[:], true)
	case t.defConn:
		return any(l.conn[:], false) && any(l.lst[:], true)
	case t.useConn:
		return any(l.conn[:], true)
	case t.defLst:
		return any(l.lst[:], false)
	case t.killLst:
		return any(l.lst[:], true)
	}
	if k == OpHotSwapNet {
		return !l.anyStream()
	}
	return true
}

// pickSlot returns a slot index from b whose liveness == want.
func pickSlot(rng *kbase.Rng, b []bool, want bool) int {
	n := 0
	for _, v := range b {
		if v == want {
			n++
		}
	}
	d := rng.Intn(n)
	for i, v := range b {
		if v == want {
			if d == 0 {
				return i
			}
			d--
		}
	}
	return -1
}

// genOp fills one op of kind k valid in state l.
func genOp(rng *kbase.Rng, k OpKind, l *live) Op {
	op := Op{Kind: k}
	t := opInfo[k]
	switch {
	case t.defFD:
		op.Slot = pickSlot(rng, l.fd[:], false)
	case t.useFD:
		op.Slot = pickSlot(rng, l.fd[:], true)
	case t.defConn:
		op.Slot = pickSlot(rng, l.conn[:], false)
		op.Arg = pickSlot(rng, l.lst[:], true)
	case t.useConn:
		op.Slot = pickSlot(rng, l.conn[:], true)
	case t.defLst:
		op.Slot = pickSlot(rng, l.lst[:], false)
	case t.killLst:
		op.Slot = pickSlot(rng, l.lst[:], true)
	}
	if t.path {
		op.Path = Paths[rng.Intn(len(Paths))]
	}
	if t.path2 {
		op.Path2 = Paths[rng.Intn(len(Paths))]
	}
	switch k {
	case OpOpen:
		op.Flags = OpenFlagSets[rng.Intn(len(OpenFlagSets))]
	case OpRead, OpWrite, OpPread, OpPwrite, OpSend, OpRecv:
		op.Len = 1 + rng.Intn(MaxIOLen)
	case OpTruncate:
		op.Len = rng.Intn(2 * MaxIOLen)
	case OpStepNet:
		op.Len = 1 + rng.Intn(MaxSteps)
	case OpKioBatch:
		op.Len = 1 + rng.Intn(12)
	case OpLseek:
		op.Arg = rng.Intn(3) // whence
	case OpPartition:
		op.Arg = rng.Intn(2) // one-way
	}
	switch k {
	case OpPread, OpPwrite, OpLseek:
		op.Off = int64(rng.Intn(MaxOff))
	}
	switch k {
	case OpWrite, OpPwrite, OpSend, OpKioBatch:
		op.Seed = uint32(rng.Uint64())
	}
	return op
}

// Generate builds a fresh valid program of 4..maxLen ops using the
// default kind weights.
func Generate(rng *kbase.Rng, maxLen int) *Prog {
	return GenerateWeighted(rng, &genWeights, maxLen)
}

// GenerateWeighted builds a fresh valid program of 4..maxLen ops,
// drawing kinds from a caller-supplied weight table (the seed corpus
// translates workload mixes into such tables).
func GenerateWeighted(rng *kbase.Rng, w *[opKindCount]int, maxLen int) *Prog {
	if maxLen <= 4 || maxLen > MaxOps {
		maxLen = MaxOps
	}
	n := 4 + rng.Intn(maxLen-3)
	p := &Prog{Ops: make([]Op, 0, n)}
	var l live
	for len(p.Ops) < n {
		k, ok := pickKind(rng, &l, w)
		if !ok {
			break
		}
		op := genOp(rng, k, &l)
		l.apply(op)
		p.Ops = append(p.Ops, op)
	}
	return p
}

// Mutate returns a mutated valid copy of p. One of five mutation
// strategies is applied; the result always differs structurally or
// in a field value (tweaks re-roll until something changes) unless
// the program has collapsed to nothing mutable.
func Mutate(rng *kbase.Rng, p *Prog) *Prog {
	q := p.Clone()
	switch rng.Intn(5) {
	case 0: // insert an op at a valid position
		pos := rng.Intn(len(q.Ops) + 1)
		var l live
		for _, op := range q.Ops[:pos] {
			l.apply(op)
		}
		if k, ok := pickKind(rng, &l, &genWeights); ok {
			op := genOp(rng, k, &l)
			q.Ops = append(q.Ops[:pos], append([]Op{op}, q.Ops[pos:]...)...)
		}
	case 1: // delete an op (dependents cascade via Fix)
		if len(q.Ops) > 0 {
			i := rng.Intn(len(q.Ops))
			q.Ops = append(q.Ops[:i], q.Ops[i+1:]...)
		}
	case 2: // tweak a value field
		if len(q.Ops) > 0 {
			tweak(rng, &q.Ops[rng.Intn(len(q.Ops))])
		}
	case 3: // duplicate an op right after itself
		if len(q.Ops) > 0 && len(q.Ops) < MaxOps {
			i := rng.Intn(len(q.Ops))
			op := q.Ops[i]
			q.Ops = append(q.Ops[:i+1], append([]Op{op}, q.Ops[i+1:]...)...)
		}
	case 4: // truncate the tail
		if len(q.Ops) > 1 {
			q.Ops = q.Ops[:1+rng.Intn(len(q.Ops)-1)]
		}
	}
	q.Fix()
	if len(q.Ops) == 0 {
		return Generate(rng, 8)
	}
	return q
}

// tweak perturbs one op's value fields in place (slot references are
// left alone — Fix would drop a broken reference and the structural
// mutations already explore slot shapes).
func tweak(rng *kbase.Rng, op *Op) {
	t := opInfo[op.Kind]
	switch rng.Intn(4) {
	case 0:
		if t.path {
			op.Path = Paths[rng.Intn(len(Paths))]
		} else if op.Kind == OpOpen {
			op.Flags = OpenFlagSets[rng.Intn(len(OpenFlagSets))]
		}
	case 1:
		switch op.Kind {
		case OpRead, OpWrite, OpPread, OpPwrite, OpSend, OpRecv:
			op.Len = 1 + rng.Intn(MaxIOLen)
		case OpTruncate:
			op.Len = rng.Intn(2 * MaxIOLen)
		case OpStepNet:
			op.Len = 1 + rng.Intn(MaxSteps)
		case OpKioBatch:
			op.Len = 1 + rng.Intn(12)
		}
	case 2:
		switch op.Kind {
		case OpPread, OpPwrite:
			op.Off = int64(rng.Intn(MaxOff))
		case OpOpen:
			op.Flags = OpenFlagSets[rng.Intn(len(OpenFlagSets))]
		case OpLseek:
			op.Off = int64(rng.Intn(MaxOff))
			op.Arg = rng.Intn(3)
		}
	case 3:
		switch op.Kind {
		case OpWrite, OpPwrite, OpSend, OpKioBatch:
			op.Seed = uint32(rng.Uint64())
		case OpRename:
			op.Path2 = Paths[rng.Intn(len(Paths))]
		}
	}
}

// Splice crosses two programs: a prefix of a with a suffix of b,
// repaired to validity and truncated to MaxOps.
func Splice(rng *kbase.Rng, a, b *Prog) *Prog {
	ca := 0
	if len(a.Ops) > 0 {
		ca = rng.Intn(len(a.Ops) + 1)
	}
	cb := 0
	if len(b.Ops) > 0 {
		cb = rng.Intn(len(b.Ops) + 1)
	}
	q := &Prog{Ops: make([]Op, 0, ca+len(b.Ops)-cb)}
	q.Ops = append(q.Ops, a.Ops[:ca]...)
	q.Ops = append(q.Ops, b.Ops[cb:]...)
	q.Fix()
	if len(q.Ops) == 0 {
		return Generate(rng, 8)
	}
	return q
}
