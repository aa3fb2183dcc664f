package faultinject

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
)

// TestFlightRecorderAttributesFault extends the double-free campaign
// with the flight recorder: when the planted over-release oopses, the
// black-box dump attached to the oops must name the faulted subsystem
// and the operation that tripped it — the bufcache:put on the victim
// block — so a campaign failure is attributable without a debugger.
func TestFlightRecorderAttributesFault(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)

	ktrace.Buffer().Reset()
	ktrace.EnableFlightRecorder(16)
	defer ktrace.DisableFlightRecorder()

	dev := blockdev.New(blockdev.Config{Blocks: 64, BlockSize: 512, Rng: kbase.NewRng(1)})
	c := bufcache.NewCache(dev, 0)
	const victim = 17
	bh, err := c.Bread(victim)
	if err.IsError() {
		t.Fatalf("Bread: %v", err)
	}
	bh.Put()
	// The planted bug: a second release of a buffer nobody holds.
	if perr := bh.Put(); perr == nil {
		t.Fatal("over-release went unreported")
	}

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d oopses, want 1", len(evs))
	}
	oops := evs[0]
	if oops.Module != "bufcache" {
		t.Fatalf("oops module = %q, want bufcache", oops.Module)
	}
	if len(oops.Trace) == 0 {
		t.Fatal("oops carries no flight-recorder dump")
	}

	dump := strings.Join(oops.Trace, "\n")
	// The dump names the faulted subsystem and operation: the put on
	// the victim block that tripped the oops.
	if !strings.Contains(dump, "bufcache:put") {
		t.Fatalf("dump does not name the faulted operation bufcache:put:\n%s", dump)
	}
	wantArg := "a0=17"
	found := false
	for _, line := range oops.Trace {
		if strings.Contains(line, "bufcache:put") && strings.Contains(line, wantArg) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no bufcache:put event on the victim block %d:\n%s", victim, dump)
	}
	// The dump ends with the kernel:oops marker carrying the module
	// hash, so the fault site is unambiguous even among put traffic.
	last := oops.Trace[len(oops.Trace)-1]
	if !strings.Contains(last, "kernel:oops") {
		t.Fatalf("dump does not end at the oops: %q", last)
	}
}

// TestCampaignWithFlightRecorder runs the full stock campaign with the
// flight recorder installed: scenarios still produce the same outcome
// table (the recorder must be an observer, never an actor).
func TestCampaignWithFlightRecorder(t *testing.T) {
	ktrace.Buffer().Reset()
	ktrace.EnableFlightRecorder(16)
	defer ktrace.DisableFlightRecorder()

	rep := Run(Scenarios())
	for _, res := range rep.Results {
		if res.Safe != OutcomePrevented {
			t.Errorf("%s: safe outcome %s with flight recorder installed",
				res.Scenario.Name, res.Safe)
		}
	}
}
