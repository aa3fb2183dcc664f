// Command swapbench measures the live hot-swap latency blip and
// writes BENCH_swap.json — the evidence behind the "replace a
// subsystem on a running kernel" claim:
//
//   - a sustained mixed workload (parallel fs workers plus a network
//     round-trip driver) runs for the whole benchmark;
//   - mid-run, the kernel hot-swaps extlike->safefs and then
//     tcb->safetcp through the compartment drain protocol;
//   - every operation's latency is timestamped, so the report splits
//     p50/p99/max into steady state vs the two swap windows — the blip
//     is the price of the drain, visible as the swap-window p99;
//   - the process exits non-zero if ANY operation fails or is dropped,
//     before, during, or after a swap: the drain protocol's contract
//     is zero lost work, not merely a small blip.
//
// Run via `make bench-swap`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/pkg/safelinux"
)

const (
	fsWorkers      = 4
	filesPerWorker = 8
	steadyWindow   = 150 * time.Millisecond
	payload        = "swapbench-payload"
)

// sample is one timed operation: when it finished (offset from bench
// start) and how long it took.
type sample struct {
	at  time.Duration
	dur time.Duration
}

// recorder collects samples and failures from one workload class.
type recorder struct {
	mu       sync.Mutex
	samples  []sample
	failures []string
}

func (r *recorder) add(at, dur time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{at: at, dur: dur})
	r.mu.Unlock()
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// window is a half-open time interval [from, to) relative to bench
// start.
type window struct{ from, to time.Duration }

func (w window) contains(t time.Duration) bool { return t >= w.from && t < w.to }

// Percentiles is the per-phase latency summary, nanoseconds.
type Percentiles struct {
	Ops int64   `json:"ops"`
	P50 float64 `json:"p50_ns"`
	P99 float64 `json:"p99_ns"`
	Max float64 `json:"max_ns"`
}

// SwapReport is one hot-swap's outcome.
type SwapReport struct {
	Kind      string  `json:"kind"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	WallUs    float64 `json:"swap_wall_us"`
	StartedMs float64 `json:"started_at_ms"`
}

// Result is the BENCH_swap.json schema.
type Result struct {
	Experiment string                 `json:"experiment"`
	Date       string                 `json:"date,omitempty"`
	Command    string                 `json:"command"`
	Host       map[string]any         `json:"host"`
	Caveat     string                 `json:"caveat"`
	Swaps      []SwapReport           `json:"swaps"`
	FS         map[string]Percentiles `json:"fs_op_latency"`
	Net        map[string]Percentiles `json:"net_roundtrip_latency"`
	Derived    map[string]string      `json:"derived"`
	Failures   []string               `json:"failures"`
	Dropped    int                    `json:"in_flight_ops_dropped"`
}

func percentiles(durs []time.Duration) Percentiles {
	if len(durs) == 0 {
		return Percentiles{}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	at := func(q float64) float64 {
		return float64(durs[int(q*float64(len(durs)-1))].Nanoseconds())
	}
	return Percentiles{
		Ops: int64(len(durs)),
		P50: at(0.50),
		P99: at(0.99),
		Max: float64(durs[len(durs)-1].Nanoseconds()),
	}
}

// split buckets samples into steady-state vs swap-window latencies.
func split(samples []sample, swaps []window) (steady, blip []time.Duration) {
	for _, s := range samples {
		in := false
		for _, w := range swaps {
			if w.contains(s.at) {
				in = true
				break
			}
		}
		if in {
			blip = append(blip, s.dur)
		} else {
			steady = append(steady, s.dur)
		}
	}
	return steady, blip
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

func run(date string) (*Result, error) {
	prevLV := kbase.SetLockValidation(false)
	defer kbase.SetLockValidation(prevLV)

	k, err := safelinux.New(safelinux.Config{
		Seed:         1,
		Compartments: true,
		Link:         net.LinkParams{Delay: 1},
	})
	if err != kbase.EOK {
		return nil, fmt.Errorf("boot: %v", err)
	}
	defer k.Close()

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var fsRec, netRec recorder

	// fs workers: overwrite a bounded set of files so the mid-swap
	// tree copy stays small, and read one back each cycle.
	for w := 0; w < fsWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/w%d_f%d", w, i%filesPerWorker)
				opStart := time.Now()
				fd, err := k.VFS.Open(k.Task, path, vfs.ORdWr|vfs.OCreate|vfs.OTrunc)
				if err != kbase.EOK {
					fsRec.fail("worker %d: open %s: %v", w, path, err)
					return
				}
				if _, err := k.VFS.Write(k.Task, fd, []byte(payload)); err != kbase.EOK {
					fsRec.fail("worker %d: write %s: %v", w, path, err)
				}
				if _, err := k.VFS.Pread(k.Task, fd, buf[:len(payload)], 0); err != kbase.EOK {
					fsRec.fail("worker %d: read %s: %v", w, path, err)
				}
				if err := k.VFS.Close(fd); err != kbase.EOK {
					fsRec.fail("worker %d: close %s: %v", w, path, err)
				}
				fsRec.add(time.Since(start), time.Since(opStart))
			}
		}()
	}

	// One network driver: the packet sim is single-threaded, so a
	// single goroutine owns all round trips.
	wg.Add(1)
	go func() {
		defer wg.Done()
		port := uint16(9000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			opStart := time.Now()
			if err := k.StreamRoundTrip(port, []byte(payload)); err != kbase.EOK {
				netRec.fail("round trip port %d: %v", port, err)
				return
			}
			netRec.add(time.Since(start), time.Since(opStart))
			port++
		}
	}()

	// Steady state, then swap fs, steady state, swap net, steady state.
	var swaps []SwapReport
	var windows []window
	doSwap := func(kind, from, to string) error {
		time.Sleep(steadyWindow)
		s := time.Since(start)
		swapStart := time.Now()
		var err kbase.Errno
		switch kind {
		case "fs":
			err = k.HotSwap(kind, safefs.Module{})
		case "net":
			err = k.HotSwap(kind, safetcp.Module{})
		}
		if err != kbase.EOK {
			return fmt.Errorf("hot-swap %s: %v", kind, err)
		}
		wall := time.Since(swapStart)
		// Ops that blocked on the drain gate retire just after EndDrain
		// reopens it; a small tail margin keeps them in the swap window
		// they actually stalled in.
		windows = append(windows, window{from: s, to: s + wall + 2*time.Millisecond})
		swaps = append(swaps, SwapReport{
			Kind:      kind,
			From:      from,
			To:        to,
			WallUs:    float64(wall.Microseconds()),
			StartedMs: float64(s.Milliseconds()),
		})
		return nil
	}
	if err := doSwap("fs", "extlike", "safefs"); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	if err := doSwap("net", "tcb", "safetcp"); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	time.Sleep(steadyWindow)
	close(stop)
	wg.Wait()

	if !k.FSSafe() || !k.TCPSafe() {
		return nil, fmt.Errorf("kernel not running safe modules after swaps (fs=%v tcp=%v)", k.FSSafe(), k.TCPSafe())
	}
	if !k.Plane.AllHealthy() {
		return nil, fmt.Errorf("compartment plane unhealthy after swaps")
	}

	res := &Result{
		Experiment: "live hot-swap (extlike->safefs, tcb->safetcp) under sustained mixed load: p99 blip vs steady state, zero dropped operations",
		Date:       date,
		Command:    "make bench-swap",
		Host:       hostInfo(),
		Caveat: "The device and packet link are simulated in-memory, so absolute latencies are " +
			"scheduling overhead, not media time; the honest signals are relative — the swap-window " +
			"p99 against the steady-state p99 (the drain blip), the swap wall time itself, and the " +
			"zero-failure count, which is checked, not asserted. A swap window shorter than one " +
			"workload op may capture few or no samples; the drain stall then shows up in the " +
			"steady-state max instead.",
		Swaps:   swaps,
		FS:      map[string]Percentiles{},
		Net:     map[string]Percentiles{},
		Derived: map[string]string{},
	}

	fsSteady, fsBlip := split(fsRec.samples, windows)
	netSteady, netBlip := split(netRec.samples, windows)
	res.FS["steady"] = percentiles(fsSteady)
	res.FS["swap_window"] = percentiles(fsBlip)
	res.Net["steady"] = percentiles(netSteady)
	res.Net["swap_window"] = percentiles(netBlip)

	if s, b := res.FS["steady"], res.FS["swap_window"]; s.P99 > 0 && b.Ops > 0 {
		res.Derived["fs_p99_blip"] = fmt.Sprintf("%.1fx steady p99 (%.0fns -> %.0fns)", b.P99/s.P99, s.P99, b.P99)
	}
	if s, b := res.Net["steady"], res.Net["swap_window"]; s.P99 > 0 && b.Ops > 0 {
		res.Derived["net_p99_blip"] = fmt.Sprintf("%.1fx steady p99 (%.0fns -> %.0fns)", b.P99/s.P99, s.P99, b.P99)
	}

	res.Failures = append(fsRec.failures, netRec.failures...)
	if res.Failures == nil {
		res.Failures = []string{}
	}
	return res, nil
}

func main() {
	out := flag.String("out", "BENCH_swap.json", "output file (- for stdout)")
	date := flag.String("date", "", "date stamp to embed (omitted if empty)")
	flag.Parse()

	res, err := run(*date)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
		os.Exit(1)
	}
	data, jerr := json.MarshalIndent(res, "", "  ")
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "swapbench: %v\n", jerr)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "swapbench: %v\n", err)
		os.Exit(1)
	} else {
		fmt.Printf("swapbench: wrote %s\n", *out)
	}
	// The drain protocol's contract: zero dropped or failed in-flight
	// operations across both swaps.
	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "swapbench: %d operations failed during the run:\n", len(res.Failures))
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}
