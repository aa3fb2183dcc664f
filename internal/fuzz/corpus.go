package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/workload"
)

// Corpus: the novelty-prioritized program queue the campaign feeds
// on, the workload-derived seed programs it starts from, and the
// on-disk format regression repros are committed in.

// queueEntry is one admitted program with its admission-time novelty.
type queueEntry struct {
	prog    *Prog
	newBits int // coverage bits this program was first to reach
	idx     int // admission order (deterministic tiebreak)
}

// Queue holds corpus programs ordered by admission. Selection is
// weighted by admission-time novelty: programs that opened more of
// the bitmap get proportionally more mutation energy. No map state —
// iteration order is slice order, so scheduling is deterministic.
type Queue struct {
	entries []queueEntry
	weight  int
}

// Add admits a program with the given novelty (clamped to ≥1 so every
// admitted program stays reachable).
func (q *Queue) Add(p *Prog, newBits int) {
	if newBits < 1 {
		newBits = 1
	}
	q.entries = append(q.entries, queueEntry{prog: p, newBits: newBits, idx: len(q.entries)})
	q.weight += newBits
}

// Len returns the number of admitted programs.
func (q *Queue) Len() int { return len(q.entries) }

// Pick draws a program weighted by novelty. Returns nil when empty.
func (q *Queue) Pick(rng *kbase.Rng) *Prog {
	if q.weight == 0 {
		return nil
	}
	d := rng.Intn(q.weight)
	for i := range q.entries {
		if d < q.entries[i].newBits {
			return q.entries[i].prog
		}
		d -= q.entries[i].newBits
	}
	return q.entries[len(q.entries)-1].prog
}

// mixWeights translates a workload FSMix into a fuzz kind-weight
// table. Create maps to O_CREATE-heavy opens; a small fixed Close
// weight recycles fd slots so long programs keep making progress.
func mixWeights(m workload.FSMix) [opKindCount]int {
	var w [opKindCount]int
	w[OpOpen] = m.Create + 4
	w[OpClose] = 4
	w[OpRead] = m.Read
	w[OpPread] = m.Read / 2
	w[OpWrite] = m.Write
	w[OpPwrite] = m.Write / 2
	w[OpMkdir] = m.Mkdir
	w[OpUnlink] = m.Unlink
	w[OpRmdir] = m.Rmdir
	w[OpRename] = m.Rename
	w[OpFsync] = m.Fsync
	w[OpTruncate] = m.Truncate
	return w
}

// SeedCorpus derives the initial corpus from the workload package's
// canonical FS mixes: eight programs per mix, generated from fixed
// seeds. These exercise only the file surface — the campaign's 2×
// coverage gate measures how far the generative loop gets beyond
// them (streams, faults, kio, hot-swap).
func SeedCorpus() []*Prog {
	mixes := []workload.FSMix{workload.DataHeavyMix(), workload.MetadataHeavyMix()}
	var progs []*Prog
	for mi, m := range mixes {
		w := mixWeights(m)
		rng := kbase.NewRng(uint64(1000 + mi))
		for i := 0; i < 8; i++ {
			progs = append(progs, GenerateWeighted(rng, &w, MaxOps))
		}
	}
	return progs
}

// NamedProg is a corpus program with its on-disk name.
type NamedProg struct {
	Name string
	Prog *Prog
}

// LoadCorpusDir reads every *.prog file under dir in sorted name
// order (the committed regression corpus). A missing directory is an
// empty corpus, not an error.
func LoadCorpusDir(dir string) ([]NamedProg, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".prog") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make([]NamedProg, 0, len(names))
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		p, err := ParseProg(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, NamedProg{Name: name, Prog: p})
	}
	return out, nil
}
