package spec

import (
	"fmt"
	"strings"

	"safelinux/internal/linuxlike/kbase"
)

// Rate-of-change machinery (§4.5): "changes must prove that they
// don't violate existing safety guarantees ... local changes to code
// require similarly local changes to proofs."
//
// A Suite is the per-module regression bundle: the module's spec, the
// workloads its checking is known to cover, and the crash
// configuration. Re-running the suite after every change is the
// check-time analogue of re-elaborating proofs, and because suites
// are per-module, a local change re-checks locally — the property the
// paper says incremental verification must have.

// Suite bundles everything needed to re-validate one module.
type Suite[S any] struct {
	Name string
	Spec Spec[S]
	// MkImpl builds a fresh implementation (the current code).
	MkImpl func() Impl[S]
	// Scripted traces pinned by past debugging (regression traces).
	Scripted [][]Op
	// Gen + Depth configure small-scope exploration.
	Gen   []Op
	Depth int
	// Crash, when non-nil, builds the crash-checkable variant; the
	// suite then also runs crash-consistency checking over each
	// scripted trace with the given sync cadence.
	Crash     func() CrashImpl[S]
	SyncEvery int
}

// SuiteResult aggregates one suite run.
type SuiteResult struct {
	Name     string
	Steps    int
	Failures []Failure
}

// Ok reports a clean run.
func (r SuiteResult) Ok() bool { return len(r.Failures) == 0 }

// Summary renders one line per phase.
func (r SuiteResult) Summary() string {
	status := "PASS"
	if !r.Ok() {
		status = "FAIL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (%d steps)", status, r.Name, r.Steps)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  %s", f.String())
	}
	return b.String()
}

// Run executes the full suite: scripted traces, small-scope
// exploration, then crash checking. It stops at the first failing
// phase — like a proof that no longer elaborates.
func (s Suite[S]) Run() SuiteResult {
	res := SuiteResult{Name: s.Name}
	for i, trace := range s.Scripted {
		rep := Check(s.Spec, s.MkImpl(), trace)
		res.Steps += rep.Steps
		if !rep.Ok() {
			res.Failures = append(res.Failures, rep.Failures...)
			res.Failures = append(res.Failures, Failure{
				Kind: FailOracle, Want: fmt.Sprintf("scripted trace %d clean", i),
				Got: "divergence above",
			})
			return res
		}
	}
	if len(s.Gen) > 0 && s.Depth > 0 {
		rep := Explore(s.Spec, s.MkImpl, s.Gen, s.Depth)
		res.Steps += rep.Steps
		if !rep.Ok() {
			res.Failures = append(res.Failures, rep.Failures...)
			return res
		}
	}
	if s.Crash != nil {
		for _, trace := range s.Scripted {
			rep := CheckCrashConsistency(s.Spec, s.Crash(), trace, s.SyncEvery)
			res.Steps += rep.Steps
			if !rep.Ok() {
				res.Failures = append(res.Failures, rep.Failures...)
				return res
			}
		}
	}
	return res
}

// RunSuites executes several modules' suites and reports which ones a
// change broke. The err is EUCLEAN when any suite fails, mirroring
// "the kernel no longer proves".
//
//kerncheck:ignore deadexport paper artifact: the Step-4 regression-suite runner, demonstrated by spec's own tests
func RunSuites(results ...SuiteResult) (string, kbase.Errno) {
	var b strings.Builder
	err := kbase.EOK
	for _, r := range results {
		b.WriteString(r.Summary())
		b.WriteString("\n")
		if !r.Ok() {
			err = kbase.EUCLEAN
		}
	}
	return b.String(), err
}
