package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// summary is one metric's distribution over the runs of a set.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// runSet is a set of runs per workload with their summary.
type runSet struct {
	Runs    map[string][]record           `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

func metricValues(rs []record, name string) []float64 {
	var vs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

func (s *runSet) summarize() {
	s.Summary = map[string]map[string]summary{}
	for w, rs := range s.Runs {
		out := map[string]summary{}
		for _, r := range rs {
			for name, v := range r.Metrics {
				if _, done := out[name]; done {
					continue
				}
				vs := metricValues(rs, name)
				q1, q2, q3 := quartiles(vs)
				out[name] = summary{Median: q2, Q1: q1, Q3: q3, Unit: v.Unit, N: len(vs)}
			}
		}
		s.Summary[w] = out
	}
}

func printSummary(w io.Writer, set runSet, ws []workload) {
	for _, wl := range ws {
		sum := set.Summary[wl.name]
		names := make([]string, 0, len(sum))
		for n := range sum {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := sum[n]
			fmt.Fprintf(w, "%-16s %-30s median %14.4f  q1 %14.4f  q3 %14.4f %-8s n=%d spread %.1f%%\n",
				wl.name, n, s.Median, s.Q1, s.Q3, s.Unit, s.N, 100*s.spread())
		}
	}
}

// agreement compares the first set of runs with a later one. The sets
// agree when the later median is within the metric's bound of the
// first. Separately, a set is tight when its spread is at most 10%
// (or, for setup_s, its quartile distance at most 0.05 s).
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Set      int     `json:"set"`
	Shift    float64 `json:"median_shift"`
	Bound    float64 `json:"bound"`
	Spread   float64 `json:"spread"`
	Agree    bool    `json:"agree"`
	Tight    bool    `json:"tight"`
}

func agreements(sets []runSet) []agreement {
	var out []agreement
	for w := range sets[0].Summary {
		for _, m := range endToEnd {
			base, ok := sets[0].Summary[w][m.Name]
			if !ok {
				continue
			}
			for i := 1; i < len(sets); i++ {
				s := sets[i].Summary[w][m.Name]
				a := agreement{Workload: w, Metric: m.Name, Set: i + 1, Bound: m.Bound,
					Shift:  ratio(s.Median-base.Median, math.Abs(base.Median)),
					Spread: max(base.spread(), s.spread())}
				a.Agree = math.Abs(a.Shift) <= m.Bound
				a.Tight = a.Spread <= 0.10
				if m.Name == "setup_s" {
					a.Tight = a.Tight || max(base.Q3-base.Q1, s.Q3-s.Q1) <= 0.05
				}
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// printAgreement prints the set-to-set check and returns the metrics
// whose sets disagree.
func printAgreement(w io.Writer, sets []runSet) []string {
	var bad []string
	for _, a := range agreements(sets) {
		agree, tight := "agree", "tight"
		if !a.Agree {
			agree = "DISAGREE"
			bad = append(bad, a.Workload+" "+a.Metric)
		}
		if !a.Tight {
			tight = "wide"
		}
		fmt.Fprintf(w, "sets %-16s %-14s set %d vs 1: median %+6.1f%% (bound %.0f%%) %-8s spread %5.1f%% %s\n",
			a.Workload, a.Metric, a.Set, 100*a.Shift, 100*a.Bound, agree, 100*a.Spread, tight)
	}
	return bad
}

// Verdicts of compare, per workload and end-to-end metric.
const (
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictSame       = "within-bound"
)

// verdict applies the comparison rules to paired runs of a parent
// (base) and a change (next): a gain needs the change to win at least
// nine pairs in ten and a median gap wider than the parent's quartile
// spread; a regression is a median worse than the bound allows; a
// parent spread wider than the bound leaves the metric unresolved
// unless every change run beats every parent run.
func verdict(m metricDef, base, next []float64) (string, int) {
	pairs := min(len(base), len(next))
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(next[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, nmed, _ := quartiles(next)
	worse := (nmed - bmed) / math.Abs(bmed)
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, n := range next {
		for _, b := range base {
			if !better(n, b) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && math.Abs(nmed-bmed) > bq3-bq1 && better(nmed, bmed):
		return verdictGain, wins
	case worse > m.Bound:
		return verdictRegression, wins
	case ratio(bq3-bq1, math.Abs(bmed)) > m.Bound && !allBetter:
		return verdictUnresolved, wins
	}
	return verdictSame, wins
}

// interleaved reports whether the runs of the two sides alternate in
// time pair by pair, as paired comparison requires.
func interleaved(base, next []record) bool {
	pairs := min(len(base), len(next))
	for i := 0; i+1 < pairs; i++ {
		hi := max(base[i].StartUnix, next[i].StartUnix)
		lo := min(base[i+1].StartUnix, next[i+1].StartUnix)
		if hi > lo {
			return false
		}
	}
	return true
}

// compareMain: kbench compare base.json new.json. Run i of each file
// forms pair i; make the runs alternately (see README.md). Exits 1 if
// any end-to-end metric regressed on any workload.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("kbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: kbench compare base.json new.json")
		return 2
	}
	base, err := readResultFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench compare: %v\n", err)
		return 2
	}
	next, err := readResultFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "kbench compare: %v\n", err)
		return 2
	}
	if len(base.Sets) == 0 || len(next.Sets) == 0 {
		fmt.Fprintln(os.Stderr, "kbench compare: a result file holds no runs")
		return 2
	}
	status := 0
	for _, w := range workloads {
		b, n := base.Sets[0].Runs[w.name], next.Sets[0].Runs[w.name]
		if len(b) == 0 || len(n) == 0 {
			continue
		}
		if !interleaved(b, n) {
			fmt.Fprintf(stdout, "%-16s warning: the runs of the two sides do not alternate\n", w.name)
		}
		for _, m := range endToEnd {
			bv, nv := metricValues(b, m.Name), metricValues(n, m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v, wins := verdict(m, bv, nv)
			if v == verdictRegression {
				status = 1
			}
			bq1, bmed, bq3 := quartiles(bv)
			nq1, nmed, nq3 := quartiles(nv)
			fmt.Fprintf(stdout, "%-16s %-13s base %12.4f [%.4f, %.4f]  new %12.4f [%.4f, %.4f] %-6s  wins %d/%d  %s\n",
				w.name, m.Name, bmed, bq1, bq3, nmed, nq1, nq3, m.Unit, wins, min(len(bv), len(nv)), v)
		}
	}
	return status
}
