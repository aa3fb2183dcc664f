package faultinject

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
)

// The acceptance bar from the roadmap: at least 200 seeded fault
// schedules, zero legacy-vs-safetcp divergences.
func TestNetDifferentialSweep(t *testing.T) {
	schedules := netSweep(0)
	if len(schedules) < 200 {
		t.Fatalf("sweep too small for CI: %d schedules, want >= 200", len(schedules))
	}
	rep := runNetDiff(schedules)
	for _, ln := range rep.render() {
		t.Log(ln)
	}
	if n := len(rep.Divergences); n != 0 {
		t.Fatalf("%d divergences between legacy TCP and safetcp", n)
	}
	// The sweep must exercise both terminal behaviors, or the
	// equivalence check is vacuous.
	for _, classes := range []map[string]int{rep.LegacyClass, rep.SafeClass} {
		if classes[NetDelivered] == 0 {
			t.Fatalf("no schedule delivered: %v", classes)
		}
		if classes[NetReset] == 0 {
			t.Fatalf("no schedule exercised a typed reset: %v", classes)
		}
		if classes[NetStalled] != 0 || classes[NetCorrupt] != 0 {
			t.Fatalf("stalls/corruption in sweep: %v", classes)
		}
	}
}

// A hard partition with no heal must end in the same typed reset on
// both stacks — the errno is part of the contract.
func TestNetDiffNoHealResetsTyped(t *testing.T) {
	s := NetSchedule{
		Name: "noheal", Seed: 99, Link: net.LinkParams{Delay: 1},
		Bytes: 16384, PartitionAt: 4, MaxSteps: 120000,
	}
	lo := runNet(s, legacyStack)
	so := runNet(s, safeStack())
	if lo.Class != NetReset || so.Class != NetReset {
		t.Fatalf("expected resets, got legacy{%s} safe{%s}", lo, so)
	}
	if lo.Reset != kbase.ETIMEDOUT || so.Reset != kbase.ETIMEDOUT {
		t.Fatalf("reset errnos: legacy=%v safe=%v, want ETIMEDOUT", lo.Reset, so.Reset)
	}
}

// A manufactured divergence must render with flight-recorder context,
// so a real one is debuggable from the CI log alone.
func TestNetDiffReportsDivergenceWithTrace(t *testing.T) {
	rep := NetReport{
		Schedules:   1,
		LegacyClass: map[string]int{NetDelivered: 1},
		SafeClass:   map[string]int{NetReset: 1},
		Divergences: []NetDivergence{{
			Schedule:    NetSchedule{Name: "x", Seed: 7},
			Legacy:      NetOutcome{Class: NetDelivered},
			Safe:        NetOutcome{Class: NetReset, Reset: kbase.ECONNRESET},
			LegacyTrace: []string{"#1 net:tcp_send task=0 a0=512 a1=80 a2=0 a3=0"},
			SafeTrace:   []string{"#1 safetcp:send task=0 a0=512 a1=80 a2=0 a3=0"},
		}},
	}
	joined := strings.Join(rep.render(), "\n")
	for _, want := range []string{"DIVERGE", "net:tcp_send", "safetcp:send"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("report missing %q:\n%s", want, joined)
		}
	}
	if netEquivalent(rep.Divergences[0].Legacy, rep.Divergences[0].Safe) {
		t.Fatalf("delivered vs reset judged equivalent")
	}
}
