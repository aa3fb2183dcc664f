// Command kbench is the syscall-level benchmark of the simulated
// kernel. It boots real kernels through pkg/safelinux (AsyncIO,
// Compartments and CaptureOops on; the *.safe workloads add UpgradeFS
// and UpgradeTCP), drives closed-loop workloads with one client
// through the public VFS, socket and Sim.Step calls, checks every
// result against its own model of the kernel state, and reports
// end-to-end metrics (untraced) or per-layer metrics (-trace 1).
//
// Run it from the repository root with cmd/kbench/run.sh, which builds
// this module and passes its arguments on:
//
//	bash cmd/kbench/run.sh                              # all eight workloads, 10 s each
//	bash cmd/kbench/run.sh -workload fs-hot.legacy -trace 1
//	bash cmd/kbench/run.sh -runs 5 -out base.json       # five fresh processes per workload
//	bash cmd/kbench/run.sh compare base.json new.json
//
// See README.md for the workloads, the metrics and the known gaps.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

type runConfig struct {
	seed    uint64
	seconds float64
	scale   float64
	trace   bool
	spans   string

	// Tests only: ops fixes the measured op count (0: run for seconds);
	// tamper changes kernel state behind the model's back after set-up.
	ops    int
	tamper func(*env)
}

// setupsPerRun: each run sets up this many kernels one after another,
// measures each for an equal share of the run, and reports the median
// set-up time.
const setupsPerRun = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full result of one run of one workload.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	StartUnix int64                  `json:"start_unix_ns"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Digest    string                 `json:"digest"`
	SetupS    []float64              `json:"setup_runs_s"`
	MeasuredS float64                `json:"measured_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info holds values reported but not gated: they do not repeat
	// within a bound, or they are exact counts checked elsewhere.
	Info  map[string]float64 `json:"info"`
	Spans map[string]spanAgg `json:"spans,omitempty"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated op stream and of the kernel")
	seconds := fs.Float64("seconds", 10, "length of the measured phase of each run")
	scale := fs.Float64("scale", 1, "multiplies file, directory and connection counts and warm-up ops (smoke tests)")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload, each in a fresh process; reports medians and quartiles")
	sets := fs.Int("sets", 1, "repeat the -runs set this many times and check the sets agree")
	out := fs.String("out", "", "write all run records and their summary to this JSON file")
	appendOut := fs.Bool("append", false, "add the runs to an existing -out file (alternating compare pairs)")
	spans := fs.String("spans", "", "traced runs: write the kept span records to this JSON file")
	commit := fs.String("commit", "", "commit id recorded in -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, spans: *spans}
	var ws []workload
	if *names == "all" {
		ws = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "kbench: unknown workload %q\n", n)
				return 2
			}
			ws = append(ws, w)
		}
	}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "kbench: -trace must be 0 or 1")
		return 2
	case *seconds <= 0 || *scale <= 0 || *runs < 1 || *sets < 1:
		fmt.Fprintln(os.Stderr, "kbench: -seconds and -scale must be positive, -runs and -sets at least 1")
		return 2
	case *spans != "" && (len(ws) != 1 || *runs != 1 || *sets != 1):
		fmt.Fprintln(os.Stderr, "kbench: -spans needs a single workload and a single run")
		return 2
	}
	return runAll(cfg, ws, options{*runs, *sets, *out, *appendOut, *commit}, stdout)
}

// options are the flags about repeating runs and keeping their results.
type options struct {
	runs, sets int
	out        string
	appendOut  bool
	commit     string
}

// runAll runs the workloads and returns the exit status: 1 if a run
// could not be set up, was incorrect, or the sets disagree.
func runAll(cfg runConfig, ws []workload, opt options, stdout io.Writer) int {
	if opt.runs == 1 && opt.sets == 1 {
		status := 0
		set := runSet{Runs: map[string][]record{}}
		for _, w := range ws {
			rec, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", w.name, err)
				return 1
			}
			if !rec.Correct {
				status = 1
			}
			if err := printRecord(stdout, rec); err != nil {
				fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", w.name, err)
				return 1
			}
			set.Runs[w.name] = append(set.Runs[w.name], *rec)
		}
		if opt.out != "" {
			if err := writeOut(opt.out, opt.appendOut, opt.commit, cfg, []runSet{set}); err != nil {
				fmt.Fprintf(os.Stderr, "kbench: %v\n", err)
				return 1
			}
		}
		return status
	}

	// Repeated runs: every run is a fresh process, so no run inherits
	// another's heap, goroutines or process-global trace state.
	var all []runSet
	status := 0
	for s := 0; s < opt.sets; s++ {
		set := runSet{Runs: map[string][]record{}}
		for r := 0; r < opt.runs; r++ {
			for _, w := range ws {
				rec, err := runChild(w, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", w.name, err)
					return 1
				}
				if !rec.Correct {
					status = 1
				}
				fmt.Fprintf(stdout, "set %d run %d %s: %s\n", s+1, r+1, w.name, brief(rec))
				set.Runs[w.name] = append(set.Runs[w.name], *rec)
			}
		}
		set.summarize()
		printSummary(stdout, set, ws)
		all = append(all, set)
	}
	var disagree []string
	if len(all) > 1 {
		disagree = printAgreement(stdout, all)
	}
	if opt.out != "" {
		if err := writeOut(opt.out, opt.appendOut, opt.commit, cfg, all); err != nil {
			fmt.Fprintf(os.Stderr, "kbench: %v\n", err)
			return 1
		}
	}
	if len(disagree) > 0 {
		return 1
	}
	return status
}

// runChild runs one workload in a fresh process of this binary and
// reads back its record line.
func runChild(w workload, cfg runConfig) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-scale", fmt.Sprint(cfg.scale), "-trace", trace)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), recordPrefix); ok {
			var rec record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, fmt.Errorf("child record: %w", err)
			}
			return &rec, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("child: %w", runErr)
	}
	return nil, errors.New("child printed no record")
}

const recordPrefix = "record "

// printRecord prints every reported metric by name and unit, the full
// record, and last the result line.
func printRecord(w io.Writer, rec *record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	line, err := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-16s %-30s %14.4f %s\n", rec.Workload, n, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "%-16s PROBLEM %s\n", rec.Workload, p)
	}
	fmt.Fprintf(w, "%s%s\n", recordPrefix, full)
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func brief(rec *record) string {
	var parts []string
	for _, m := range endToEnd {
		if v, ok := rec.Metrics[m.Name]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v.Value))
		}
	}
	if !rec.Correct {
		parts = append(parts, "INCORRECT: "+strings.Join(rec.Problems, "; "))
	}
	if len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d metrics", len(rec.Metrics)))
	}
	return strings.Join(parts, " ")
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
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// resultFile is the -out format.
type resultFile struct {
	Host      map[string]any `json:"host"`
	Commit    string         `json:"commit,omitempty"`
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Scale     float64        `json:"scale"`
	Trace     bool           `json:"trace"`
	Sets      []runSet       `json:"sets"`
	Agreement []agreement    `json:"agreement,omitempty"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeOut(path string, appendRuns bool, commit string, cfg runConfig, sets []runSet) error {
	rf := &resultFile{Host: hostInfo(), Commit: commit, Seed: cfg.seed,
		Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace}
	if appendRuns {
		old, err := readResultFile(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			return err
		case len(old.Sets) > 0:
			for name, rs := range sets[0].Runs {
				old.Sets[0].Runs[name] = append(old.Sets[0].Runs[name], rs...)
			}
			sets = old.Sets[:1]
		}
	}
	for i := range sets {
		sets[i].summarize()
	}
	rf.Sets = sets
	if len(sets) > 1 {
		rf.Agreement = agreements(sets)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
