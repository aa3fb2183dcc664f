package faultinject

import "testing"

// The churn sweep pins the rebuilt data plane's bookkeeping — demux
// turnover, timer-wheel arm/cancel, port recycling, backlog ordering —
// to identical outcome censuses on both stacks.
func TestNetChurnSweepZeroDivergences(t *testing.T) {
	schedules := netChurnSweep(0)
	rep := runNetChurnDiff(schedules)
	for _, ln := range rep.render() {
		t.Log(ln)
	}
	if n := len(rep.Divergences); n != 0 {
		t.Fatalf("%d churn divergences between legacy TCP and safetcp", n)
	}
	if rep.Conns < 1000 {
		t.Fatalf("churn sweep too small: %d conns", rep.Conns)
	}
}

// One churn run must actually deliver everything under a clean link —
// a census of resets that happened to match would be vacuous.
func TestNetChurnCleanDeliversAll(t *testing.T) {
	s := NetChurnSchedule{
		Name: "clean-smoke", Seed: 11, Conns: 60, Waves: 2,
		Bytes: 768, MaxSteps: 20000,
	}
	for _, leg := range []struct {
		name string
		out  ChurnOutcome
	}{
		{"legacy", runChurn(s, legacyStack)},
		{"safe", runChurn(s, safeStack())},
	} {
		if leg.out.Classes["delivered"] != s.Conns {
			t.Fatalf("%s: delivered=%d of %d: %s", leg.name,
				leg.out.Classes["delivered"], s.Conns, leg.out)
		}
		if leg.out.Classes["closed"] != s.Conns {
			t.Fatalf("%s: closed=%d of %d: %s", leg.name,
				leg.out.Classes["closed"], s.Conns, leg.out)
		}
		if leg.out.Accepted != s.Conns {
			t.Fatalf("%s: accepted=%d of %d", leg.name, leg.out.Accepted, s.Conns)
		}
	}
}
