package safelinux

import (
	"fmt"
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// armLatencyPlane turns on the full v2 latency plane (histograms +
// spans, sampling off, 1ns slow threshold so every root is captured)
// and restores everything on cleanup.
func armLatencyPlane(t *testing.T) {
	t.Helper()
	prevShift := ktrace.SetSampleShift(0)
	ktrace.SetHistograms(true)
	ktrace.SetSpans(true)
	prevTh := ktrace.SetSlowOpThreshold(1)
	ktrace.ResetSlowOp()
	t.Cleanup(func() {
		ktrace.SetSlowOpThreshold(prevTh)
		ktrace.SetSpans(false)
		ktrace.SetHistograms(false)
		ktrace.SetSampleShift(prevShift)
		ktrace.ResetSlowOp()
	})
}

// TestLatencyPlaneEndToEnd drives a dirtying workload plus SyncAll
// through a kernel with the full latency plane armed, then
// checks the two tentpole claims: the slow-op watchdog auto-dumps a
// span tree naming every subsystem the op crossed (VFS → journal →
// buffer cache → kio), and every boundary op's latency is readable as
// percentiles through the one metrics registry.
func TestLatencyPlaneEndToEnd(t *testing.T) {
	k, err := New(Config{Seed: 33, CaptureOops: true})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()
	armLatencyPlane(t)

	// Dirty enough state that the sync has real work in every layer.
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 4; i++ {
		dir := fmt.Sprintf("/d%d", i)
		if err := k.VFS.Mkdir(k.Task, dir); err != kbase.EOK {
			t.Fatalf("mkdir: %v", err)
		}
		fd, err := k.VFS.Open(k.Task, dir+"/f", vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("open: %v", err)
		}
		if _, err := k.VFS.Pwrite(k.Task, fd, payload, 0); err != kbase.EOK {
			t.Fatalf("pwrite: %v", err)
		}
		if err := k.VFS.Close(fd); err != kbase.EOK {
			t.Fatalf("close: %v", err)
		}
	}
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}

	// The watchdog capture: SyncAll was the last root op, so it is the
	// last slow op, and its tree must name every subsystem it crossed.
	slow := ktrace.LastSlowOp()
	if slow == nil {
		t.Fatal("no slow-op capture with a 1ns threshold")
	}
	if slow.Op != "vfs:syncall" {
		t.Fatalf("last slow op is %q, want vfs:syncall", slow.Op)
	}
	joined := strings.Join(slow.Tree, "\n")
	for _, sub := range []string{
		"vfs:syncall", "journal:commit", "journal:checkpoint",
		"bufcache:sync", "kio:batch",
	} {
		if !strings.Contains(joined, sub) {
			t.Fatalf("span tree dump missing %q — the trace lost a subsystem:\n%s", sub, joined)
		}
	}
	if !strings.HasPrefix(slow.Tree[0], "vfs:syncall ") {
		t.Fatalf("tree root %q, want the vfs entry point", slow.Tree[0])
	}

	// The metrics plane: every boundary op the issue lists exports
	// percentiles through the registry.
	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)
	recorded := [][2]string{
		{"vfs", "syncall_ns"}, {"vfs", "pwrite_ns"}, {"vfs", "mkdir_ns"},
		{"journal", "commit_ns"}, {"journal", "checkpoint_ns"},
		{"bufcache", "sync_ns"}, {"kio", "batch_ns"}, {"kio", "sqe_ns"},
	}
	for _, rn := range recorded {
		v, ok := m.LookupHist(rn[0], rn[1])
		if !ok {
			t.Fatalf("%s.%s not exported by the registry", rn[0], rn[1])
		}
		if v.Count == 0 {
			t.Fatalf("%s.%s recorded no samples", rn[0], rn[1])
		}
		if v.P50 > v.P99 || v.P99 > v.Max {
			t.Fatalf("%s.%s quantiles inconsistent: %+v", rn[0], rn[1], v)
		}
	}
	// Declared-but-idle distributions are still present (count 0):
	// the registry is the complete catalog, not just what fired.
	for _, rn := range [][2]string{
		{"safetcp", "rtt_jiffies"}, {"safetcp", "conn_life_jiffies"},
		{"compartment", "drain_ns"}, {"compartment", "swap_ns"},
		{"bufcache", "fill_ns"},
	} {
		if _, ok := m.LookupHist(rn[0], rn[1]); !ok {
			t.Fatalf("%s.%s not present in the registry", rn[0], rn[1])
		}
	}
	if v, ok := m.Lookup("ktrace", "spans.started"); !ok || v == 0 {
		t.Fatal("span-plane counters not exported")
	}
}

// TestUnmountTracesJournal pins that an extlike unmount carries the
// caller's task: its final commit and checkpoint appear in the span
// tree of the traced VFS.Unmount.
func TestUnmountTracesJournal(t *testing.T) {
	k, err := New(Config{Seed: 34, CaptureOops: true})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()
	writeThrough(t, k.VFS, k.Task, "/f", "dirty before unmount")
	armLatencyPlane(t)

	if err := k.VFS.Unmount(k.Task, "/"); err != kbase.EOK {
		t.Fatalf("Unmount: %v", err)
	}
	slow := ktrace.LastSlowOp()
	if slow == nil || slow.Op != "vfs:unmount" {
		t.Fatalf("last slow op %+v, want the vfs:unmount capture", slow)
	}
	joined := strings.Join(slow.Tree, "\n")
	for _, sub := range []string{"journal:commit", "journal:checkpoint"} {
		if !strings.Contains(joined, sub) {
			t.Fatalf("unmount span tree missing %q:\n%s", sub, joined)
		}
	}
}

// TestLatencyPlaneSafetcpRTT drives the safe transport with the
// histogram plane armed and checks the RTT and connection-lifetime
// distributions fill.
func TestLatencyPlaneSafetcpRTT(t *testing.T) {
	k, err := New(Config{Seed: 44, CaptureOops: true})
	if err != kbase.EOK {
		t.Fatalf("boot: %v", err)
	}
	defer k.Close()
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	armLatencyPlane(t)

	m := ktrace.NewMetrics()
	k.RegisterMetrics(m)
	before, _ := m.LookupHist("safetcp", "rtt_jiffies")

	for i := 0; i < 4; i++ {
		if err := k.StreamRoundTrip(uint16(5100+i), []byte("latency-probe")); err != kbase.EOK {
			t.Fatalf("StreamRoundTrip %d: %v", i, err)
		}
	}

	after, ok := m.LookupHist("safetcp", "rtt_jiffies")
	if !ok || after.Count <= before.Count {
		t.Fatalf("rtt histogram did not fill: before %d, after %d", before.Count, after.Count)
	}
	if after.Max == 0 {
		t.Fatal("rtt max is zero — samples recorded as empty")
	}
}
