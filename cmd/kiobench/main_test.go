package main

import "testing"

func realCopies(t *testing.T) map[string]CopyStats {
	t.Helper()
	copies := map[string]CopyStats{}
	for path, owned := range map[string]bool{"copy_path": false, "ownership_path": true} {
		cs, err := measureCopies(256, owned)
		if err != nil {
			t.Fatal(err)
		}
		copies[path] = cs
	}
	return copies
}

func TestCopyGatePassesOnRealCounts(t *testing.T) {
	if derived, pass := copyGate(realCopies(t)); !pass {
		t.Fatalf("gate failed on the engine's own counters: %v", derived)
	}
}

// Counters where the ownership path copies like the memcpy path must
// fail the gate: it is what an engine that quietly copied moved pages
// would record.
func TestCopyGateFailsWhenMoveCopies(t *testing.T) {
	copies := realCopies(t)
	copies["ownership_path"] = copies["copy_path"]
	if derived, pass := copyGate(copies); pass {
		t.Fatalf("gate passed an ownership path that copies: %v", derived)
	}
}
