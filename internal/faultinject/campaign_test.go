package faultinject

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safety/module"
)

func TestCampaignRuns(t *testing.T) {
	rep := Run(Scenarios())
	if len(rep.Results) != 8 {
		t.Fatalf("scenarios = %d", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Legacy == "" || res.Safe == "" {
			t.Fatalf("%s produced empty outcome", res.Scenario.Name)
		}
	}
}

// TestEverySafeModulePrevents: the roadmap's promise — each class is
// prevented (not merely detected) by the step that targets it.
func TestEverySafeModulePrevents(t *testing.T) {
	rep := Run(Scenarios())
	for _, res := range rep.Results {
		if res.Safe != OutcomePrevented {
			t.Errorf("%s: safe outcome = %s, want prevented", res.Scenario.Name, res.Safe)
		}
	}
}

// TestLegacyNeverPrevents: under legacy modules each bug either
// manifests or is only caught after the bad access — except the
// crash-semantic scenario's healthy-mount control.
func TestLegacyNeverPrevents(t *testing.T) {
	rep := Run(Scenarios())
	for _, res := range rep.Results {
		if res.Legacy == OutcomePrevented {
			t.Errorf("%s: legacy outcome = prevented — scenario is not injecting anything", res.Scenario.Name)
		}
	}
}

// TestCampaignTable pins each scenario's (legacy, safe) outcome pair,
// the table EXPERIMENTS.md §3 reports: a plant that moves a legacy
// row from detected-late to manifested, or back, fails here.
func TestCampaignTable(t *testing.T) {
	want := map[string][2]Outcome{
		"errptr-null-deref":       {OutcomeManifested, OutcomePrevented},
		"inode-use-after-free":    {OutcomeDetectedLate, OutcomePrevented},
		"buffer-double-free":      {OutcomeDetectedLate, OutcomePrevented},
		"isize-unlocked-store":    {OutcomeManifested, OutcomePrevented},
		"unlink-block-leak":       {OutcomeManifested, OutcomePrevented},
		"writeend-type-confusion": {OutcomeDetectedLate, OutcomePrevented},
		"runt-packet-parse":       {OutcomeDetectedLate, OutcomePrevented},
		"ack-then-lose-crash":     {OutcomeManifested, OutcomePrevented},
	}
	rep := Run(Scenarios())
	if len(rep.Results) != len(want) {
		t.Fatalf("scenarios = %d, want %d", len(rep.Results), len(want))
	}
	for _, res := range rep.Results {
		w, ok := want[res.Scenario.Name]
		if !ok {
			t.Errorf("unexpected scenario %s", res.Scenario.Name)
			continue
		}
		if got := [2]Outcome{res.Legacy, res.Safe}; got != w {
			t.Errorf("%s: (legacy, safe) = %v, want %v", res.Scenario.Name, got, w)
		}
	}
}

// TestAckedCrashSafefsEitherMode: the crash-semantics check holds on
// safefs whether it syncs on every commit or only on fsync, so the
// row does not rest on one durability mode.
func TestAckedCrashSafefsEitherMode(t *testing.T) {
	for _, sync := range []bool{true, false} {
		dev := blockdev.New(blockdev.Config{Blocks: 512, BlockSize: 256, Rng: kbase.NewRng(1)})
		if err := safefs.Format(dev); err != kbase.EOK {
			t.Fatalf("Format: %v", err)
		}
		data := vfs.NewMountData(&safefs.MountData{Disk: dev})
		writeAcked(mount(&safefs.FS{SyncOnCommit: sync}, data))
		dev.CrashApplyNone()
		if got := crashOutcome(mount(&safefs.FS{SyncOnCommit: sync}, data)); got != OutcomePrevented {
			t.Errorf("SyncOnCommit=%v: outcome %s, want prevented", sync, got)
		}
	}
}

func TestPreventedCount(t *testing.T) {
	rep := Run(Scenarios())
	if got := rep.PreventedCount(); got != len(rep.Results) {
		t.Fatalf("PreventedCount = %d of %d", got, len(rep.Results))
	}
}

// TestScenarioClassesCoverCategorization: the campaign exercises at
// least one scenario for every §2-relevant oops kind and both
// preventing steps appear.
func TestScenarioClassesCoverCategorization(t *testing.T) {
	classes := map[kbase.OopsKind]bool{}
	steps := map[module.SafetyLevel]bool{}
	for _, sc := range Scenarios() {
		classes[sc.Class] = true
		steps[sc.PreventedBy] = true
	}
	for _, want := range []kbase.OopsKind{
		kbase.OopsNullDeref, kbase.OopsUseAfterFree, kbase.OopsDoubleFree,
		kbase.OopsDataRace, kbase.OopsLeak, kbase.OopsTypeConfusion,
		kbase.OopsOutOfBounds, kbase.OopsSemantic,
	} {
		if !classes[want] {
			t.Errorf("no scenario for class %s", want)
		}
	}
	if !steps[module.LevelTypeSafe] || !steps[module.LevelOwnershipSafe] || !steps[module.LevelVerified] {
		t.Errorf("steps covered = %v", steps)
	}
}

func TestRender(t *testing.T) {
	out := Run(Scenarios()).Render()
	for _, want := range []string{"scenario", "prevented", "§2", "1475"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := Run(Scenarios()).Render()
	b := Run(Scenarios()).Render()
	if a != b {
		t.Fatalf("campaign not deterministic")
	}
}
