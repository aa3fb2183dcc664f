package main

import "testing"

func TestGatePassesOnRealTable(t *testing.T) {
	runs, err := table()
	if err != nil {
		t.Fatal(err)
	}
	if derived, pass := gate(runs); !pass {
		t.Fatalf("gate failed on the real table: %v", derived)
	}
}

// A table whose adaptive 5%-loss runs are really fixed-RTO runs must
// fail the gate: it is what a broken adaptive estimator would record.
func TestGateFailsWhenAdaptiveIsFixed(t *testing.T) {
	runs, err := table()
	if err != nil {
		t.Fatal(err)
	}
	for _, stack := range stacks {
		r, err := transfer(stack, 0.05, true)
		if err != nil {
			t.Fatal(err)
		}
		runs[stack]["adaptive_loss5"] = r
	}
	if derived, pass := gate(runs); pass {
		t.Fatalf("gate passed a table with a fixed-RTO adaptive column: %v", derived)
	}
}
