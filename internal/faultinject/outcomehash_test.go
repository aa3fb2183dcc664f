package faultinject

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// Outcome hashes of both sweeps. The sweep tests check only that the
// legs agree, so a change that moved both legs the same way would pass
// them; these pin every leg's outcome. A change that alters protocol
// behaviour on purpose re-records them and says so.
const (
	netSweepOutcomeHash   = 0x77cc2b035a5a58fb
	churnSweepOutcomeHash = 0x2a615f3dca35cab5
)

// TestSweepOutcomeHashes hashes every schedule's outcome on both legs:
// the netdiff class, errno, received bytes, retransmits and steps, and
// the churn per-schedule class census.
func TestSweepOutcomeHashes(t *testing.T) {
	sweep := runNetDiff(netSweep(0))
	if len(sweep.Legacy) != 204 || len(sweep.Safe) != 204 {
		t.Fatalf("netdiff sweep ran %d/%d schedules, want 204", len(sweep.Legacy), len(sweep.Safe))
	}
	h := fnv.New64a()
	for i := range sweep.Legacy {
		for _, o := range []NetOutcome{sweep.Legacy[i], sweep.Safe[i]} {
			fmt.Fprintf(h, "%s %d %d %d %d\n", o.Class, o.Reset, o.Got, o.Retransmits, o.Steps)
		}
	}
	if got := h.Sum64(); got != netSweepOutcomeHash {
		t.Errorf("netdiff sweep outcome hash %#x, want %#x", got, uint64(netSweepOutcomeHash))
	}

	churn := runNetChurnDiff(netChurnSweep(0))
	h.Reset()
	for i := range churn.Legacy {
		fmt.Fprintf(h, "%s | %s\n", churn.Legacy[i], churn.Safe[i])
	}
	if got := h.Sum64(); got != churnSweepOutcomeHash {
		t.Errorf("churn sweep outcome hash %#x, want %#x", got, uint64(churnSweepOutcomeHash))
	}
}
