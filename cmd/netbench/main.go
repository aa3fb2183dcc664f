// Command netbench measures the hardened TCP stacks under adversarial
// links and writes BENCH_net.json — the evidence behind the adaptive
// retransmission claim: goodput (payload bytes per simulated jiffy)
// and retransmit counts for a 32KB transfer at 0/1/5/20% loss on a
// 10-jiffy one-way-delay link, for the legacy stack and safetcp, each
// with the adaptive Jacobson/Karn RTO and with the legacy fixed
// 16-jiffy RTO.
//
// The 10-jiffy link puts the ~21-jiffy RTT above the fixed 16-jiffy
// RTO, so the fixed timer spuriously retransmits segments whose ACKs
// are still in flight — the textbook pathology Jacobson's estimator
// removes. netbench exits non-zero if the adaptive RTO fails to beat
// the fixed RTO on retransmits at 5% loss in either stack, so CI
// enforces the acceptance line.
//
// The transport's other properties are go test's to gate: port
// recycling, typed EADDRINUSE and idle connections holding no timer in
// the stream conformance suite (internal/faultinject/stream_test.go),
// and the differential and churn sweeps in faultinject's sweep tests.
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

// Runs is the transfer table: stack ("legacy", "safetcp") to run name
// ("adaptive_loss5", "fixed_loss0", ...) to its measurement.
type Runs map[string]map[string]NetRun

// Result is the BENCH_net.json schema, version 3: runs and derived
// keep their version-2 names and meanings; version 2's
// differential_sweep, tick_cost, churn and long_haul sections are gone.
type Result struct {
	SchemaVersion int               `json:"schema_version"`
	Experiment    string            `json:"experiment"`
	Date          string            `json:"date,omitempty"`
	Command       string            `json:"command"`
	Host          map[string]any    `json:"host"`
	Link          map[string]any    `json:"link"`
	Runs          Runs              `json:"runs"`
	Derived       map[string]string `json:"derived"`
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
	lst, err := b.ListenStream(80)
	if err != kbase.EOK {
		return NetRun{}, fmt.Errorf("%s listen: %v", stack, err)
	}
	cli, err := a.DialStream(2, 80)
	if err != kbase.EOK {
		return NetRun{}, fmt.Errorf("%s dial: %v", stack, err)
	}
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

var stacks = []string{"legacy", "safetcp"}

// table runs the transfer at each loss rate, with the adaptive and the
// fixed RTO, on both stacks.
func table() (Runs, error) {
	runs := Runs{}
	for _, stack := range stacks {
		runs[stack] = map[string]NetRun{}
		for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
			for _, fixed := range []bool{false, true} {
				r, err := transfer(stack, loss, fixed)
				if err != nil {
					return nil, err
				}
				mode := "adaptive"
				if fixed {
					mode = "fixed"
				}
				runs[stack][fmt.Sprintf("%s_loss%g", mode, 100*loss)] = r
			}
		}
	}
	return runs, nil
}

// gate is netbench's acceptance line: on each stack the adaptive RTO
// retransmits less than the fixed RTO at 5% loss. It returns one
// derived line per stack and whether every stack passed.
func gate(runs Runs) (map[string]string, bool) {
	derived := map[string]string{}
	pass := true
	for _, stack := range stacks {
		a := runs[stack]["adaptive_loss5"]
		f := runs[stack]["fixed_loss5"]
		ok := a.Retransmits < f.Retransmits
		pass = pass && ok
		derived[stack+"_adaptive_vs_fixed_retrans_loss5"] = fmt.Sprintf(
			"%d vs %d retransmits (adaptive must be lower: %v)", a.Retransmits, f.Retransmits, ok)
	}
	return derived, pass
}

func run(date string) (*Result, bool, error) {
	runs, err := table()
	if err != nil {
		return nil, false, err
	}
	derived, pass := gate(runs)
	return &Result{
		SchemaVersion: 3,
		Experiment:    "hardened TCP under loss: adaptive vs fixed RTO",
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
		Runs:    runs,
		Derived: derived,
	}, pass, nil
}

func main() {
	out := flag.String("out", "BENCH_net.json", "output file (- for stdout)")
	date := flag.String("date", "", "date stamp to embed (omitted if empty)")
	flag.Parse()

	res, pass, err := run(*date)
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
		fmt.Fprintln(os.Stderr, "netbench: acceptance FAILED (see the derived field)")
		os.Exit(1)
	}
}
