package bufcache

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Flag-state auditing.
//
// The paper argues (§4.4) that buffer_head's sixteen independent
// flags form a state space of 65536 combinations, only a sliver of
// which is meaningful, and that a correct specification of which
// combinations are valid "can be complicated". This file encodes the
// validity rules as executable predicates, enumerates the state
// space, and checks live buffers against the rules — the artifact a
// verification effort would need as its buffer_head axiom set.

// Rule is one validity constraint over a flag word.
type Rule struct {
	Name string
	Desc string
	// Valid returns false if the combination violates the rule.
	Valid func(Flag) bool
}

// DefaultRules captures the buffer_head flag protocol as documented
// in Linux comments and inferred from fs/buffer.c call sites.
//
//kerncheck:ignore deadexport paper artifact (§4.4 buffer_head flag state space), demonstrated by tests and benchmarks
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "dirty-implies-uptodate",
			Desc: "a dirty buffer must contain valid data to write back",
			Valid: func(f Flag) bool {
				return f&BHDirty == 0 || f&BHUptodate != 0
			},
		},
		{
			Name: "dirty-implies-mapped",
			Desc: "a dirty buffer needs a disk mapping (or New/Delay allocation state)",
			Valid: func(f Flag) bool {
				return f&BHDirty == 0 || f&(BHMapped|BHNew|BHDelay) != 0
			},
		},
		{
			Name: "new-excludes-req",
			Desc: "a just-allocated buffer cannot already have completed I/O",
			Valid: func(f Flag) bool {
				return f&BHNew == 0 || f&BHReq == 0
			},
		},
		{
			Name: "delay-excludes-mapped",
			Desc: "delayed-allocation buffers have no mapping yet",
			Valid: func(f Flag) bool {
				return f&BHDelay == 0 || f&BHMapped == 0
			},
		},
		{
			Name: "unwritten-implies-mapped",
			Desc: "an unwritten extent is still a mapped extent",
			Valid: func(f Flag) bool {
				return f&BHUnwritten == 0 || f&BHMapped != 0
			},
		},
		{
			Name: "async-read-excludes-async-write",
			Desc: "a buffer cannot be under async read and async write at once",
			Valid: func(f Flag) bool {
				return f&BHAsyncRead == 0 || f&BHAsyncWrite == 0
			},
		},
		{
			Name: "async-io-implies-lock",
			Desc: "in-flight I/O holds the buffer lock",
			Valid: func(f Flag) bool {
				return f&(BHAsyncRead|BHAsyncWrite) == 0 || f&BHLock != 0
			},
		},
		{
			Name: "write-eio-implies-req",
			Desc: "a write error can only exist after I/O was submitted",
			Valid: func(f Flag) bool {
				return f&BHWriteEIO == 0 || f&BHReq != 0
			},
		},
		{
			Name: "async-read-excludes-dirty",
			Desc: "a buffer being read in cannot be dirty",
			Valid: func(f Flag) bool {
				return f&BHAsyncRead == 0 || f&BHDirty == 0
			},
		},
	}
}

// Violations returns the names of all rules the flag word violates.
func Violations(f Flag, rules []Rule) []string {
	var out []string
	for _, r := range rules {
		if !r.Valid(f) {
			out = append(out, r.Name)
		}
	}
	return out
}

// StateSpaceReport summarizes an exhaustive sweep of all 2^16 flag
// combinations against a rule set.
type StateSpaceReport struct {
	Total        int
	Valid        int
	Invalid      int
	ByRule       map[string]int // rule name -> count of states it alone rejects
	MaxValidBits int            // most flags simultaneously set in any valid state
}

// AuditStateSpace enumerates every flag combination and classifies it.
// This is the paper's "many possible combinations of states; not all
// of the combinations are valid" made quantitative.
//
//kerncheck:ignore deadexport paper artifact (§4.4 buffer_head flag state space), demonstrated by tests and benchmarks
func AuditStateSpace(rules []Rule) StateSpaceReport {
	rep := StateSpaceReport{Total: 1 << 16, ByRule: make(map[string]int)}
	for w := 0; w < 1<<16; w++ {
		f := Flag(w)
		violated := Violations(f, rules)
		if len(violated) == 0 {
			rep.Valid++
			if n := bits.OnesCount16(uint16(f)); n > rep.MaxValidBits {
				rep.MaxValidBits = n
			}
			continue
		}
		rep.Invalid++
		if len(violated) == 1 {
			rep.ByRule[violated[0]]++
		}
	}
	return rep
}

// FlagString renders a flag word as "Dirty|Uptodate|Mapped".
func FlagString(f Flag) string {
	if f == 0 {
		return "none"
	}
	var names []string
	for bit := Flag(1); bit != 0; bit <<= 1 {
		if f&bit != 0 {
			names = append(names, FlagNames[bit])
		}
	}
	return strings.Join(names, "|")
}

// CheckLive audits every buffer currently in the cache against the
// rules, returning one report line per violating buffer.
//
//kerncheck:ignore deadexport paper artifact (§4.4 buffer_head flag state space), demonstrated by tests and benchmarks
func (c *Cache) CheckLive(rules []Rule) []string {
	bhs := make([]*BufferHead, 0, c.Cached())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for bh := s.lru.front; bh != nil; bh = bh.lruNext {
			bhs = append(bhs, bh)
		}
		s.mu.Unlock()
	}
	sort.Slice(bhs, func(i, j int) bool { return bhs[i].Block < bhs[j].Block })
	var out []string
	for _, bh := range bhs {
		f := bh.Flags()
		if v := Violations(f, rules); len(v) != 0 {
			out = append(out, fmt.Sprintf("block %d flags %s violates %s",
				bh.Block, FlagString(f), strings.Join(v, ",")))
		}
	}
	return out
}
