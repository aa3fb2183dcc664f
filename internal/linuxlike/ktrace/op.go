package ktrace

import (
	"sort"
	"strings"
	"sync"
)

// Op is a pre-registered boundary operation — one "subsystem:op"
// identity that owns a latency histogram and a stable numeric id.
//
// Ops exist so the enabled hot path never touches a string: a
// subsystem declares its ops once at init (like tracepoints), and per
// call the latency plane moves only the op's uint32 id and records
// into its histogram. This is the satellite fix for the old
// enabled-path cost, where every emit re-hashed the op name.
type Op struct {
	name  string // "vfs:read"
	sub   string // "vfs"
	short string // "read"
	id    uint32
	hist  *Histogram
}

var (
	opsMu     sync.Mutex
	opsByName = make(map[string]*Op)
	opsByID   []*Op
)

// NewOp declares (or returns the already-declared) op with the given
// "subsystem:op" name. Called from package init of the instrumented
// subsystem, mirroring New for tracepoints.
func NewOp(name string) *Op {
	opsMu.Lock()
	defer opsMu.Unlock()
	if op, ok := opsByName[name]; ok {
		return op
	}
	sub, short := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		sub, short = name[:i], name[i+1:]
	}
	op := &Op{
		name: name, sub: sub, short: short,
		id:   uint32(len(opsByID)),
		hist: NewHistogram(),
	}
	opsByName[name] = op
	opsByID = append(opsByID, op)
	return op
}

// Ops returns every declared op, sorted by name.
func Ops() []*Op {
	opsMu.Lock()
	defer opsMu.Unlock()
	out := make([]*Op, len(opsByID))
	copy(out, opsByID)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// OpByID resolves an op id (as carried in span event args) back to
// its op, or nil.
func OpByID(id uint32) *Op {
	opsMu.Lock()
	defer opsMu.Unlock()
	if int(id) < len(opsByID) {
		return opsByID[id]
	}
	return nil
}

// OpByName returns the op with the given name, or nil.
func OpByName(name string) *Op {
	opsMu.Lock()
	defer opsMu.Unlock()
	return opsByName[name]
}

// Name returns the full "subsystem:op" name.
func (op *Op) Name() string { return op.name }

// Subsystem returns the part before the colon.
func (op *Op) Subsystem() string { return op.sub }

// Short returns the part after the colon — the string a compartment
// gate's Do takes as its op tag.
func (op *Op) Short() string { return op.short }

// Hist returns the op's latency histogram (durations in nanoseconds).
func (op *Op) Hist() *Histogram { return op.hist }

// opName resolves an op id to its name for renderers ("?" if unknown).
func opName(id uint32) string {
	if op := OpByID(id); op != nil {
		return op.name
	}
	return "?"
}
