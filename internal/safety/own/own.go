// Package own implements Step 3 of the paper's roadmap: ownership
// safety at module boundaries. It provides the three restricted
// sharing models of §4.3 as first-class capabilities:
//
//  1. Owned[T] + Move  — memory ownership is passed; the caller can
//     no longer access the memory and the callee must free it.
//  2. Mut[T] (exclusive borrow) — exclusive rights to the region are
//     passed; the caller cannot access it until the call returns, and
//     the callee may mutate but not free or retain.
//  3. Ref[T] (shared borrow) — non-exclusive read rights; caller,
//     callee and others may read, none may mutate or free.
//
// Go has no affine types, so the contracts are enforced dynamically:
// every access is validated against the capability state and
// violations are reported through a Checker at the moment of misuse —
// the same programs Rust's borrow checker rejects at compile time are
// rejected here at check time. The interface is semantically
// equivalent to message passing (the paper's framing) but shares
// memory: no payload ever gets copied.
package own

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"safelinux/internal/linuxlike/ktrace"
)

// tpViolation fires once per recorded contract violation: a0 = label
// hash, a1 = violation kind index (position in allViolationKinds).
var tpViolation = ktrace.New("own:violation")

// allViolationKinds fixes an enumeration order for the taxonomy, used
// both by the violation tracepoint's kind index and by CollectMetrics.
var allViolationKinds = []ViolationKind{
	VNullUse, VUseAfterMove, VUseAfterFree, VDoubleFree, VBorrowConflict,
	VOwnerAccessDuringMut, VMutateWhileShared, VCalleeFree, VStaleBorrow,
	VFreeWhileBorrowed, VLeak,
}

func violationIndex(k ViolationKind) uint64 {
	for i, v := range allViolationKinds {
		if v == k {
			return uint64(i)
		}
	}
	return uint64(len(allViolationKinds))
}

// ViolationKind classifies an ownership-contract violation.
type ViolationKind string

// The violation taxonomy. Each maps onto the kernel bug class it
// prevents (see OopsKind).
const (
	VNullUse              ViolationKind = "null-use"                // use of the zero capability
	VUseAfterMove         ViolationKind = "use-after-move"          // source handle used after Move
	VUseAfterFree         ViolationKind = "use-after-free"          // any use after Free
	VDoubleFree           ViolationKind = "double-free"             // Free after Free
	VBorrowConflict       ViolationKind = "borrow-conflict"         // mut while borrowed / second mut
	VOwnerAccessDuringMut ViolationKind = "owner-access-during-mut" // owner touches region lent out exclusively
	VMutateWhileShared    ViolationKind = "mutate-while-shared"     // write under shared borrows
	VCalleeFree           ViolationKind = "callee-free"             // borrower attempts Free
	VStaleBorrow          ViolationKind = "stale-borrow"            // borrow used after release
	VFreeWhileBorrowed    ViolationKind = "free-while-borrowed"     // Free with live borrows
	VLeak                 ViolationKind = "leak"                    // owned value never freed
)

// Violation is one recorded contract violation.
type Violation struct {
	Kind   ViolationKind
	Label  string // the cell's label
	Op     string // the operation that misfired
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s on %q during %s: %s", v.Kind, v.Label, v.Op, v.Detail)
}

// Policy selects how a Checker reacts to violations.
type Policy int

// Checker policies.
const (
	PolicyRecord Policy = iota // record and let the access fail softly
	PolicyPanic                // panic at the violation site (dev builds)
)

// cellInfo lets the Checker track heterogeneous cells for leak
// detection without knowing their type parameter.
type cellInfo interface {
	cellLabel() string
	cellFreed() bool
}

// Checker accumulates violations and tracks live allocations.
type Checker struct {
	policy Policy

	mu         sync.Mutex
	violations []Violation
	cells      map[cellInfo]struct{}
}

// NewChecker creates a checker with the given policy.
func NewChecker(policy Policy) *Checker {
	return &Checker{policy: policy, cells: make(map[cellInfo]struct{})}
}

func (c *Checker) report(v Violation) {
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
	if tpViolation.Enabled() {
		tpViolation.Emit(0, ktrace.Hash(v.Label), violationIndex(v.Kind))
	}
	if c.policy == PolicyPanic {
		panic("own: " + v.String())
	}
}

// Violations returns all recorded violations.
//
//kerncheck:ignore deadexport the ownership checker's audit readout, asserted by tests across the stack
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Count returns the total violations recorded.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations)
}

func (c *Checker) trackCell(ci cellInfo) {
	c.mu.Lock()
	c.cells[ci] = struct{}{}
	c.mu.Unlock()
}

func (c *Checker) untrackCell(ci cellInfo) {
	c.mu.Lock()
	delete(c.cells, ci)
	c.mu.Unlock()
}

// CheckLeaks records a VLeak for every still-live cell and returns
// their labels, sorted. Call at module unload / end of scope.
func (c *Checker) CheckLeaks() []string {
	// Snapshot under the checker lock, probe cells outside it:
	// cellFreed takes the cell lock, and cells report violations
	// under their lock, so holding both here would invert order.
	c.mu.Lock()
	cells := make([]cellInfo, 0, len(c.cells))
	for ci := range c.cells {
		cells = append(cells, ci)
	}
	c.mu.Unlock()
	var leaked []string
	for _, ci := range cells {
		if !ci.cellFreed() {
			leaked = append(leaked, ci.cellLabel())
		}
	}
	sort.Strings(leaked)
	for _, l := range leaked {
		c.report(Violation{Kind: VLeak, Label: l, Op: "CheckLeaks", Detail: "owned value never freed"})
	}
	return leaked
}

// CollectMetrics enumerates checker counters — total and per-kind
// violation counts plus live cells — for the ktrace metrics registry
// (register with m.Register("own", c.CollectMetrics)). Kind names use
// underscores ("use_after_free") to fit the metric grammar.
func (c *Checker) CollectMetrics(emit func(name string, value uint64)) {
	c.mu.Lock()
	perKind := make(map[ViolationKind]uint64, len(allViolationKinds))
	for _, v := range c.violations {
		perKind[v.Kind]++
	}
	total := uint64(len(c.violations))
	c.mu.Unlock()
	emit("violations", total)
	for _, k := range allViolationKinds {
		emit(strings.ReplaceAll(string(k), "-", "_"), perKind[k])
	}
	emit("live_cells", uint64(c.LiveCount()))
}

// LiveLabels returns the labels of live (unfreed) cells whose label
// starts with prefix, sorted. A crash-containment supervisor calls
// this when a compartment faults: the cells the dead compartment still
// owns are exactly the shared state it may have left poisoned, and the
// labels name them ("safefs:/a/b", "safetcp.rx.80") for the
// quarantine report.
func (c *Checker) LiveLabels(prefix string) []string {
	c.mu.Lock()
	cells := make([]cellInfo, 0, len(c.cells))
	for ci := range c.cells {
		cells = append(cells, ci)
	}
	c.mu.Unlock()
	var live []string
	for _, ci := range cells {
		if ci.cellFreed() {
			continue
		}
		if l := ci.cellLabel(); strings.HasPrefix(l, prefix) {
			live = append(live, l)
		}
	}
	sort.Strings(live)
	return live
}

// LiveCount returns the number of live (unfreed) cells.
func (c *Checker) LiveCount() int {
	c.mu.Lock()
	cells := make([]cellInfo, 0, len(c.cells))
	for ci := range c.cells {
		cells = append(cells, ci)
	}
	c.mu.Unlock()
	n := 0
	for _, ci := range cells {
		if !ci.cellFreed() {
			n++
		}
	}
	return n
}
