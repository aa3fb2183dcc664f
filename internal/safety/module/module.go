// Package module implements Step 1 of the paper's roadmap: modular
// interfaces around kernel components. A Registry maps named,
// versioned interface descriptors to implementations; callers obtain
// implementations only through the registry (never by direct
// reference), which is what makes one-at-a-time replacement possible.
//
// Each binding carries a declared safety level — the paper's
// incremental ladder (legacy C-style → modular → type safe →
// ownership safe → verified) — and the registry enforces that
// replacements never regress a component's safety level unless
// explicitly forced. The registry's audit trail and inventory feed
// the Figure-1-style report for our own kernel.
package module

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"safelinux/internal/linuxlike/kbase"
)

// SafetyLevel is a rung on the paper's incremental ladder (§3).
type SafetyLevel int

// The ladder. Ordering is meaningful: each step subsumes the last.
const (
	LevelLegacy        SafetyLevel = iota // shared structures, unchecked casts
	LevelModular                          // Step 1: behind a modular interface
	LevelTypeSafe                         // Step 2: no void*/error-pointer casts
	LevelOwnershipSafe                    // Step 3: checked ownership contracts
	LevelVerified                         // Step 4: functional spec checked
)

var levelNames = map[SafetyLevel]string{
	LevelLegacy:        "legacy",
	LevelModular:       "modular",
	LevelTypeSafe:      "type-safe",
	LevelOwnershipSafe: "ownership-safe",
	LevelVerified:      "verified",
}

// String returns the level name.
func (l SafetyLevel) String() string {
	if n, ok := levelNames[l]; ok {
		return n
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// PreventedBugClasses lists the oops kinds a module at this level can
// no longer exhibit — the §2 categorization made operational.
func (l SafetyLevel) PreventedBugClasses() []kbase.OopsKind {
	var out []kbase.OopsKind
	if l >= LevelTypeSafe {
		out = append(out, kbase.OopsTypeConfusion)
	}
	if l >= LevelOwnershipSafe {
		out = append(out,
			kbase.OopsNullDeref, kbase.OopsUseAfterFree, kbase.OopsDoubleFree,
			kbase.OopsDataRace, kbase.OopsLeak, kbase.OopsOutOfBounds)
	}
	if l >= LevelVerified {
		out = append(out, kbase.OopsSemantic, kbase.OopsCorruption)
	}
	return out
}

// Interface describes one modular interface (name + version +
// documented methods). Version bumps signal incompatible contract
// changes; Bind refuses a module implementing the wrong version.
type Interface struct {
	Name    string
	Version int
	// Methods documents the contract surface for audits.
	Methods []string
	// Doc is the one-line human contract summary.
	Doc string
}

// Module is one replaceable kernel component.
type Module interface {
	// ModuleName identifies the implementation ("extlike", "safefs").
	ModuleName() string
	// Implements names the interface (and version) provided.
	Implements() Interface
	// Level declares the implementation's safety level.
	Level() SafetyLevel
}

// Event is one audit-trail entry.
type Event struct {
	Seq    uint64
	Kind   string // "declare", "bind", "swap", "unbind"
	Iface  string
	Module string
	Detail string
}

// modBox wraps a Module so the active implementation can live behind
// an atomic pointer (atomic.Pointer needs a concrete element type, and
// Module is an interface).
type modBox struct{ m Module }

// binding is the active implementation of one interface. The iface
// descriptor is immutable after creation; the module pointer and the
// access counter are atomic so Lookup — the hot path every
// cross-compartment call resolves through — never takes the registry
// write lock and never blocks behind an in-progress Swap.
type binding struct {
	iface Interface
	mod   atomic.Pointer[modBox]
	// accesses counts Lookup calls, the modularity-discipline signal.
	accesses atomic.Uint64
}

// Registry is the kernel's interface switchboard.
//
// Locking: mu guards the map *structure* (Declare/Bind/Unbind mutate
// it; Lookup holds it only in read mode long enough to find the
// binding). The binding payload is swapped with an atomic CAS, so a
// hot-swap under load serializes against concurrent Swaps without
// ever making a concurrent Lookup wait. The audit trail has its own
// lock because Swap appends to it without holding mu in write mode.
type Registry struct {
	mu       sync.RWMutex
	declared map[string]Interface
	bindings map[string]*binding

	trailMu sync.Mutex
	trail   []Event
	seq     uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		declared: make(map[string]Interface),
		bindings: make(map[string]*binding),
	}
}

func (r *Registry) record(kind, iface, module, detail string) {
	r.trailMu.Lock()
	defer r.trailMu.Unlock()
	r.seq++
	r.trail = append(r.trail, Event{
		Seq: r.seq, Kind: kind, Iface: iface, Module: module, Detail: detail,
	})
}

// Declare registers an interface descriptor. Re-declaring with a
// different version is a contract change and is refused while bound.
func (r *Registry) Declare(iface Interface) kbase.Errno {
	if iface.Name == "" {
		return kbase.EINVAL
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.declared[iface.Name]; ok && old.Version != iface.Version {
		if _, bound := r.bindings[iface.Name]; bound {
			return kbase.EBUSY
		}
	}
	r.declared[iface.Name] = iface
	r.record("declare", iface.Name, "", fmt.Sprintf("v%d", iface.Version))
	return kbase.EOK
}

// Bind installs a module as the implementation of its interface. The
// interface must be declared, versions must match, and the slot must
// be empty (use Swap to replace).
func (r *Registry) Bind(m Module) kbase.Errno {
	iface := m.Implements()
	r.mu.Lock()
	defer r.mu.Unlock()
	decl, ok := r.declared[iface.Name]
	if !ok {
		return kbase.ENOENT
	}
	if decl.Version != iface.Version {
		return kbase.EPROTO
	}
	if _, bound := r.bindings[iface.Name]; bound {
		return kbase.EBUSY
	}
	b := &binding{iface: decl}
	b.mod.Store(&modBox{m: m})
	r.bindings[iface.Name] = b
	r.record("bind", iface.Name, m.ModuleName(), m.Level().String())
	return kbase.EOK
}

// Swap atomically replaces the implementation of an interface. The
// replacement must implement the same interface version and must not
// regress the safety level (EPERM: the ladder only goes up). It
// returns the displaced module.
//
// Swap holds mu only in read mode: the binding's module pointer is
// replaced with a CAS loop, so concurrent Lookups proceed unblocked
// and racing Swaps serialize against each other through the CAS (each
// retry re-checks the regression rule against the then-current
// module).
func (r *Registry) Swap(m Module) (Module, kbase.Errno) {
	iface := m.Implements()
	r.mu.RLock()
	b, ok := r.bindings[iface.Name]
	r.mu.RUnlock()
	if !ok {
		return nil, kbase.ENOENT
	}
	if b.iface.Version != iface.Version {
		return nil, kbase.EPROTO
	}
	newBox := &modBox{m: m}
	for {
		oldBox := b.mod.Load()
		if m.Level() < oldBox.m.Level() {
			return nil, kbase.EPERM
		}
		if b.mod.CompareAndSwap(oldBox, newBox) {
			old := oldBox.m
			r.record("swap", iface.Name, m.ModuleName(),
				fmt.Sprintf("%s->%s (%s->%s)", old.ModuleName(), m.ModuleName(),
					old.Level(), m.Level()))
			return old, kbase.EOK
		}
	}
}

// Lookup returns the active module for an interface. This is the only
// sanctioned way for callers to reach an implementation. It is safe
// against a concurrent Swap and never blocks behind one: the map is
// consulted under the read lock and the module pointer is one atomic
// load.
func (r *Registry) Lookup(ifaceName string) (Module, kbase.Errno) {
	r.mu.RLock()
	b, ok := r.bindings[ifaceName]
	r.mu.RUnlock()
	if !ok {
		return nil, kbase.ENOENT
	}
	b.accesses.Add(1)
	return b.mod.Load().m, kbase.EOK
}

// Get resolves an interface to a concrete Go interface type T,
// combining Lookup with the typed downcast. A module bound under the
// right name but not satisfying T is a contract violation (EPROTO) —
// caught here at the boundary rather than at some later call site.
//
//kerncheck:ignore deadexport typed registry lookup; the root benchmarks compare it with the untyped path
func Get[T any](r *Registry, ifaceName string) (T, kbase.Errno) {
	var zero T
	m, err := r.Lookup(ifaceName)
	if err != kbase.EOK {
		return zero, err
	}
	t, ok := m.(T)
	if !ok {
		return zero, kbase.EPROTO
	}
	return t, kbase.EOK
}

// Binding summarizes one active binding for reports.
type Binding struct {
	Iface    Interface
	Module   string
	Level    SafetyLevel
	Accesses uint64
}

// Inventory lists all active bindings sorted by interface name — the
// data behind the kernel's own Figure-1 row.
func (r *Registry) Inventory() []Binding {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Binding, 0, len(r.bindings))
	for _, b := range r.bindings {
		m := b.mod.Load().m
		out = append(out, Binding{
			Iface:    b.iface,
			Module:   m.ModuleName(),
			Level:    m.Level(),
			Accesses: b.accesses.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iface.Name < out[j].Iface.Name })
	return out
}

// Trail returns a copy of the audit trail.
func (r *Registry) Trail() []Event {
	r.trailMu.Lock()
	defer r.trailMu.Unlock()
	out := make([]Event, len(r.trail))
	copy(out, r.trail)
	return out
}

// MinLevel returns the lowest safety level among bound modules — the
// kernel is only as safe as its weakest component.
func (r *Registry) MinLevel() SafetyLevel {
	r.mu.RLock()
	defer r.mu.RUnlock()
	min := LevelVerified
	if len(r.bindings) == 0 {
		return LevelLegacy
	}
	for _, b := range r.bindings {
		if l := b.mod.Load().m.Level(); l < min {
			min = l
		}
	}
	return min
}
