// Command netbench measures the hardened TCP stacks under adversarial
// links and writes BENCH_net.json — the evidence behind the adaptive
// retransmission claim:
//
//   - goodput (payload bytes per simulated jiffy) and retransmit
//     counts for a 32KB transfer at 0/1/5/20% loss on a 10-jiffy
//     one-way-delay link, for the legacy stack and safetcp, each with
//     the adaptive Jacobson/Karn RTO and with the legacy fixed
//     16-jiffy RTO;
//   - the differential sweep summary (schedules, outcome classes,
//     divergences) from the faultinject harness.
//
// The 10-jiffy link puts the ~21-jiffy RTT above the fixed 16-jiffy
// RTO, so the fixed timer spuriously retransmits segments whose ACKs
// are still in flight — the textbook pathology Jacobson's estimator
// removes. netbench exits non-zero if the adaptive RTO fails to beat
// the fixed RTO on retransmits at 5% loss in either stack, so CI
// enforces the acceptance line.
//
// Each workload is written once over net.StreamStack, so both stacks
// run identical code by construction; stackBuilder, which puts a stack
// on a host with its RTO tuning, is the only per-stack code.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"safelinux/internal/faultinject"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/own"
)

const (
	benchSeed  = 77
	benchBytes = 32768
	benchDelay = 10 // one-way, jiffies: RTT ~21 > the fixed 16-jiffy RTO
	stepLimit  = 2_000_000
)

// NetRun is one transfer's measurement.
type NetRun struct {
	Loss        float64 `json:"loss"`
	Bytes       int     `json:"bytes"`
	Jiffies     uint64  `json:"jiffies"`
	GoodputBPJ  float64 `json:"goodput_bytes_per_jiffy"`
	Retransmits uint64  `json:"retransmits"`
}

// Result is the BENCH_net.json schema. Version 2 adds the C1M data
// plane sections (tick_cost, churn, long_haul) alongside the v1
// fields, which keep their names and meanings.
type Result struct {
	SchemaVersion int                          `json:"schema_version"`
	Experiment    string                       `json:"experiment"`
	Date          string                       `json:"date,omitempty"`
	Command       string                       `json:"command"`
	Host          map[string]any               `json:"host"`
	Link          map[string]any               `json:"link"`
	Runs          map[string]map[string]NetRun `json:"runs"`
	Differential  map[string]any               `json:"differential_sweep"`
	TickCost      map[string]TickCost          `json:"tick_cost"`
	Churn         map[string]ChurnResult       `json:"churn"`
	LongHaul      map[string]LongHaul          `json:"long_haul,omitempty"`
	Derived       map[string]string            `json:"derived"`
}

func payload() []byte {
	p := make([]byte, benchBytes)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	return p
}

// transfer moves the payload through the named stack ("legacy" or
// "safetcp") and reports elapsed simulated time and sender retransmits.
func transfer(stack string, loss float64, fixed bool) (NetRun, error) {
	sim := net.NewSim(benchSeed)
	hA := sim.AddHost(1)
	hB := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: benchDelay, LossProb: loss})
	stackOf := stackBuilder(stack, fixed)
	a, b := stackOf(hA), stackOf(hB)
	lst, _ := b.ListenStream(80)
	cli, _ := a.DialStream(2, 80)
	want := payload()
	if err := cli.Send(want); err != kbase.EOK {
		return NetRun{}, fmt.Errorf("%s send: %v", stack, err)
	}

	var srv net.Stream
	var got []byte
	buf := make([]byte, 4096)
	ok := sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = lst.AcceptStream()
		}
		if srv != nil {
			for {
				n, _ := srv.Recv(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		}
		return len(got) >= len(want)
	}, stepLimit)
	if !ok || !bytes.Equal(got, want) {
		return NetRun{}, fmt.Errorf("%s loss=%v fixed=%v: %d/%d bytes", stack, loss, fixed, len(got), len(want))
	}
	run := NetRun{Loss: loss, Bytes: len(want), Jiffies: sim.Clock().Now(), Retransmits: cli.RetransmitCount()}
	run.GoodputBPJ = float64(run.Bytes) / float64(run.Jiffies)
	return run, nil
}

// stackBuilder returns what puts the named stack on a host, with the
// fixed or the adaptive RTO: the host itself for "legacy", safetcp
// attached to it otherwise. The tuning call is all that differs.
func stackBuilder(stack string, fixed bool) func(*net.Host) net.StreamStack {
	if stack == "legacy" {
		return func(h *net.Host) net.StreamStack {
			h.SetTCPTuning(net.TCPTuning{FixedRTO: fixed})
			return h
		}
	}
	ck := own.NewChecker(own.PolicyRecord)
	return func(h *net.Host) net.StreamStack {
		ep := safetcp.Attach(h, ck)
		ep.SetTuning(safetcp.Tuning{FixedRTO: fixed})
		return ep
	}
}

func hostInfo() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, after, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(after)
				}
				break
			}
		}
	}
	return map[string]any{
		"cpu":    cpu,
		"cores":  runtime.NumCPU(),
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
	}
}

func run(date string, longHaulConns int) (*Result, bool, error) {
	res := &Result{
		SchemaVersion: 2,
		Experiment:    "hardened TCP under loss: adaptive vs fixed RTO; differential + churn sweeps; C1M data plane (tick cost, churn, long haul)",
		Date:          date,
		Command:       "make bench-net",
		Host:          hostInfo(),
		Link: map[string]any{
			"delay_jiffies_oneway": benchDelay,
			"rtt_jiffies_approx":   2*benchDelay + 1,
			"fixed_rto_jiffies":    net.RTOJiffies,
			"note": "RTT above the fixed RTO makes the fixed timer spuriously retransmit " +
				"segments whose ACKs are in flight; the adaptive estimator converges above RTT",
		},
		Runs:     map[string]map[string]NetRun{"legacy": {}, "safetcp": {}},
		TickCost: map[string]TickCost{},
		Churn:    map[string]ChurnResult{},
		LongHaul: map[string]LongHaul{},
		Derived:  map[string]string{},
	}

	losses := []float64{0, 0.01, 0.05, 0.20}
	for _, stack := range []string{"legacy", "safetcp"} {
		for _, loss := range losses {
			for _, fixed := range []bool{false, true} {
				r, err := transfer(stack, loss, fixed)
				if err != nil {
					return nil, false, err
				}
				mode := "adaptive"
				if fixed {
					mode = "fixed"
				}
				res.Runs[stack][fmt.Sprintf("%s_loss%g", mode, 100*loss)] = r
			}
		}
	}

	pass := true
	for _, stack := range []string{"legacy", "safetcp"} {
		a := res.Runs[stack]["adaptive_loss5"]
		f := res.Runs[stack]["fixed_loss5"]
		ok := a.Retransmits < f.Retransmits
		pass = pass && ok
		res.Derived[stack+"_adaptive_vs_fixed_retrans_loss5"] = fmt.Sprintf(
			"%d vs %d retransmits (adaptive must be lower: %v)", a.Retransmits, f.Retransmits, ok)
	}

	sweep := faultinject.NetSweep(0)
	rep := faultinject.RunNetDiff(sweep)
	churnRep := faultinject.RunNetChurnDiff(faultinject.NetChurnSweep(0))
	res.Differential = map[string]any{
		"schedules":         rep.Schedules,
		"legacy_classes":    rep.LegacyClass,
		"safe_classes":      rep.SafeClass,
		"divergences":       len(rep.Divergences),
		"churn_schedules":   churnRep.Schedules,
		"churn_conns":       churnRep.Conns,
		"churn_divergences": len(churnRep.Divergences),
	}
	if len(rep.Divergences) != 0 {
		pass = false
		for _, ln := range rep.Render() {
			fmt.Fprintln(os.Stderr, ln)
		}
	}
	if len(churnRep.Divergences) != 0 {
		pass = false
		for _, ln := range churnRep.Render() {
			fmt.Fprintln(os.Stderr, ln)
		}
	}

	// C1M data plane: per-tick cost at 100k idle conns must beat the
	// frozen pre-rebuild baseline by >= 10x on both stacks; churn must
	// recycle the port space with a typed EADDRINUSE at exhaustion;
	// the long-haul run must hold its per-conn tick budget.
	for _, stack := range []string{"legacy", "safetcp"} {
		tc, err := tickCostBench(stack)
		if err != nil {
			return nil, false, err
		}
		res.TickCost[stack] = tc
		ok := tc.Speedup >= 10
		pass = pass && ok
		res.Derived[stack+"_tick_cost_100k"] = fmt.Sprintf(
			"%.0f ns/tick vs %d baseline: %.1fx (>=10x required: %v; %d timers armed idle)",
			tc.NsPerTick, tc.BaselineNs, tc.Speedup, ok, tc.ArmedTimers)

		ch, err := churnBench(stack)
		if err != nil {
			return nil, false, err
		}
		res.Churn[stack] = ch
		pass = pass && ch.PortsRecycled && ch.EaddrinuseTyped
		res.Derived[stack+"_churn"] = fmt.Sprintf(
			"%d conns in %.0fms (%.0f conns/s), ports recycled=%v, typed EADDRINUSE=%v",
			ch.TotalConns, ch.WallMs, ch.ConnsPerSec, ch.PortsRecycled, ch.EaddrinuseTyped)

		if longHaulConns > 0 {
			lh, err := longHaulBench(stack, longHaulConns)
			if err != nil {
				return nil, false, err
			}
			res.LongHaul[stack] = lh
			pass = pass && lh.WithinBudget
			res.Derived[stack+"_long_haul"] = fmt.Sprintf(
				"%d concurrent conns, %.0f heap B/conn, %.2f ns/conn/tick (budget %.0f: %v)",
				lh.Conns, lh.BytesPerConn, lh.NsPerConnTick, lh.BudgetNs, lh.WithinBudget)
		}
	}
	return res, pass, nil
}

func main() {
	out := flag.String("out", "BENCH_net.json", "output file (- for stdout)")
	date := flag.String("date", "", "date stamp to embed (omitted if empty)")
	longHaul := flag.Int("longhaul-conns", longHaulHosts*longHaulPerHost,
		"concurrent connections for the long-haul mode (0 disables it)")
	flag.Parse()

	res, pass, err := run(*date, *longHaul)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netbench: %v\n", err)
		os.Exit(1)
	}
	data, jerr := json.MarshalIndent(res, "", "  ")
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "netbench: %v\n", jerr)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if werr := os.WriteFile(*out, data, 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "netbench: %v\n", werr)
		os.Exit(1)
	} else {
		fmt.Printf("netbench: wrote %s\n", *out)
	}
	if !pass {
		fmt.Fprintln(os.Stderr, "netbench: acceptance FAILED (see derived/differential fields)")
		os.Exit(1)
	}
}
