package main

import (
	"testing"
)

// TestZeroFindings is the zero-findings policy as a test: the real
// kerncheck run over the whole module, every pass included, must
// exit clean. If this fails after your change, fix the new violation
// or suppress it with an audited //kerncheck:ignore directive.
func TestZeroFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	if code := run(false, true, false, nil); code != 0 {
		t.Fatalf("kerncheck exited %d; the findings are listed above", code)
	}
}

// TestNarrowedRunKeepsWholeProgramUses: deadexport's use set spans
// the whole module even when the run reports on a few packages, so a
// narrowed run can report no deadexport finding the full run does not.
func TestNarrowedRunKeepsWholeProgramUses(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	full, err := check(nil)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := check([]string{"internal/safemod"})
	if err != nil {
		t.Fatal(err)
	}
	if narrow.packages == 0 || narrow.packages >= full.packages {
		t.Fatalf("narrowed run checked %d of %d packages", narrow.packages, full.packages)
	}
	inFull := make(map[string]bool)
	for _, f := range full.findings {
		inFull[f.String()] = true
	}
	for _, f := range narrow.findings {
		if f.Analyzer == "deadexport" && !inFull[f.String()] {
			t.Errorf("narrowed run only: %s", f)
		}
	}
}
