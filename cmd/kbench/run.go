package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/pkg/safelinux"
)

// boot sets up one kernel for w: boot, upgrade the stack for *.safe,
// populate the data set, and run the warm-up ops. The op stream starts
// from cfg.seed, so every set-up of a run is identical. tr is the
// run's tracer; it is off during set-up.
func boot(w workload, cfg runConfig, tr *tracer) (*env, error) {
	k, errno := safelinux.New(safelinux.Config{
		Seed:         cfg.seed,
		DiskBlocks:   diskBlocks(w.family, cfg.scale),
		AsyncIO:      true,
		Compartments: true,
		CaptureOops:  true,
	})
	if errno != kbase.EOK {
		return nil, callErr("boot", errno)
	}
	e := &env{k: k, task: k.Task, tr: tr, digest: fnvOffset,
		rng: rand.New(rand.NewPCG(cfg.seed, 0x6f7073))}
	err := func() error {
		if w.safe {
			if errno := k.UpgradeFS(); errno != kbase.EOK {
				return callErr("UpgradeFS", errno)
			}
			if errno := k.UpgradeTCP(); errno != kbase.EOK {
				return callErr("UpgradeTCP", errno)
			}
		}
		e.drv = newDriver(w.family, e, cfg.scale)
		if err := e.drv.populate(); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		for i := 0; i < scaled(warmOps(w.family), cfg.scale); i++ {
			if _, err := runOp(e); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		return nil
	}()
	if err != nil {
		k.Close()
		return nil, err
	}
	return e, nil
}

// runOp runs one op and returns the latency of its kernel calls.
func runOp(e *env) (time.Duration, error) {
	d := e.drv
	s := e.tr.begin()
	d.next()
	e.tr.end(spanGen, s)
	t0 := time.Now()
	err := d.exec()
	lat := time.Since(t0)
	if err == nil {
		s = e.tr.begin()
		err = d.check()
		e.tr.end(spanCheck, s)
	}
	return lat, err
}

// phase is one measured stretch of ops.
type phase struct {
	ops, failed int
	wall        time.Duration
}

// measure runs ops until limit ops have run (limit > 0) or dur has
// passed, recording each latency. A model mismatch stops it.
func measure(e *env, lat *reservoir, first uint64, limit int, dur time.Duration) (phase, error) {
	var p phase
	start := time.Now()
	for {
		if limit > 0 {
			if p.ops == limit {
				break
			}
		} else if time.Since(start) >= dur {
			break
		}
		// The root span covers the whole iteration, the harness's own
		// bookkeeping included, so the spans account for the wall time.
		root := e.tr.startOp(first + uint64(p.ops))
		l, err := runOp(e)
		p.ops++
		lat.add(float64(l))
		var ee *errnoError
		switch {
		case errors.As(err, &ee):
			p.failed++
		case err != nil:
			p.wall = time.Since(start)
			return p, err
		}
		e.tr.end(spanOp, root)
	}
	p.wall = time.Since(start)
	return p, nil
}

func (e *env) netCounts() netCounts {
	st := e.k.Sim.Stats()
	c := netCounts{
		jiffies: float64(e.k.Sim.Clock().Now()),
		sent:    float64(st.Sent),
		dropped: float64(st.Dropped),
		steps:   float64(e.steps),
	}
	if n, ok := e.drv.(*netRR); ok {
		c.retrans = float64(n.retransmits())
	}
	return c
}

// health lists kernel-side failures: oopses, ownership violations, an
// unhealthy containment plane, new lock-order reports.
func (e *env) health(lockReports int) []string {
	var out []string
	for _, ev := range e.k.Recorder.Events() {
		out = append(out, ev.String())
	}
	if n := e.k.Checker.Count(); n > 0 {
		out = append(out, fmt.Sprintf("%d ownership violations", n))
	}
	if !e.k.Plane.AllHealthy() {
		out = append(out, "containment plane not healthy")
	}
	if n := len(kbase.Validator().Reports()) - lockReports; n > 0 {
		out = append(out, fmt.Sprintf("%d new lock-order reports", n))
	}
	return out
}

// run accumulates one run's measurements over its kernels.
type run struct {
	cfg         runConfig
	rec         *record
	lat         *reservoir
	tr          *tracer
	lockReports int
	next        uint64 // index of the next measured op

	untraced, traced phase // every measured op falls in one of the two
	heapsMB          []float64
	net              netCounts // deltas over every measured phase
	layers           layerTotals
}

// runWorkload is one run of w. It sets up setupsPerRun kernels one
// after another (the median set-up time is setup_s) and measures each
// for an equal share of the run, pooling their ops: a kernel's own
// memory layout and scheduling moves its speed by tens of percent, and
// pooling three kernels cuts that part of the run-to-run spread. Each
// kernel is verified, health-checked and closed before the next boots.
// An error means a kernel could not be set up; a run that measured is
// returned with Correct false on any mismatch or kernel failure.
func runWorkload(w workload, cfg runConfig) (*record, error) {
	r := &run{cfg: cfg, lat: newReservoir(1 << 17), tr: &tracer{},
		lockReports: len(kbase.Validator().Reports()),
		rec: &record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
			StartUnix: time.Now().UnixNano(), Info: map[string]float64{}}}
	dur := time.Duration(cfg.seconds*float64(time.Second)) / setupsPerRun
	for i := 0; i < setupsPerRun; i++ {
		t0 := time.Now()
		e, err := boot(w, cfg, r.tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.rec.SetupS = append(r.rec.SetupS, time.Since(t0).Seconds())
		if i == 0 && cfg.tamper != nil {
			cfg.tamper(e)
		}
		limit := 0
		if cfg.ops > 0 {
			limit = max(1, cfg.ops*(i+1)/setupsPerRun-cfg.ops*i/setupsPerRun)
		}
		r.measureKernel(e, limit, dur)
		r.rec.Digest = fmt.Sprintf("%016x", e.digest)
		e.k.Close()
	}
	r.finish(w)
	return r.rec, nil
}

func (r *run) count(dst *phase, p phase) {
	dst.ops += p.ops
	dst.failed += p.failed
	dst.wall += p.wall
	r.next += uint64(p.ops)
}

// measureKernel measures one kernel for its share of the run (limit
// ops, or dur), then verifies its final state and its health. A traced
// run measures the first half untraced and the second half traced: the
// rate difference is the tracing overhead.
func (r *run) measureKernel(e *env, limit int, dur time.Duration) {
	start := e.netCounts()
	var err error
	if !r.cfg.trace {
		var p phase
		p, err = measure(e, r.lat, r.next, limit, dur)
		r.count(&r.untraced, p)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.heapsMB = append(r.heapsMB, float64(ms.HeapAlloc)/1e6)
	} else {
		limitA, limitB := 0, 0
		if limit > 0 {
			limitA = max(1, limit/2)
			limitB = max(1, limit-limitA)
		}
		var a phase
		a, err = measure(e, r.lat, r.next, limitA, dur/2)
		r.count(&r.untraced, a)
		if err == nil {
			err = r.tracedPhase(e, limitB, dur-dur/2)
		}
	}
	r.net = r.net.plus(start, e.netCounts())
	if err != nil {
		r.rec.Problems = append(r.rec.Problems, "model mismatch: "+err.Error())
	} else if err := e.drv.verify(); err != nil {
		r.rec.Problems = append(r.rec.Problems, "final state: "+err.Error())
	}
	r.rec.Problems = append(r.rec.Problems, e.health(r.lockReports)...)
}

// tracedPhase measures with the benchmark's spans and the kernel's op
// histograms on, every op sampled, and reads the kernel's instruments
// before and after for the per-layer metrics.
func (r *run) tracedPhase(e *env, limit int, dur time.Duration) error {
	m := ktrace.NewMetrics()
	e.k.RegisterMetrics(m)
	resetLayerOps()
	eng := e.k.IOEngine()
	eng.SQEHist().Reset()
	before, netBefore := counters(m), e.netCounts()

	prevShift := ktrace.SetSampleShift(0)
	ktrace.SetHistograms(true)
	r.tr.start()
	p, err := measure(e, r.lat, r.next, limit, dur)
	r.tr.on = false
	ktrace.SetHistograms(false)
	ktrace.SetSampleShift(prevShift)

	r.layers.add(p, before, counters(m), netBefore, e.netCounts(), float64(eng.SQEHist().View().P50))
	r.count(&r.traced, p)
	return err
}

// finish fills the record's metrics, info and verdict.
func (r *run) finish(w workload) {
	rec := r.rec
	rec.Attempted = r.untraced.ops + r.traced.ops
	rec.Failed = r.untraced.failed + r.traced.failed
	rec.MeasuredS = (r.untraced.wall + r.traced.wall).Seconds()
	rec.Metrics = map[string]metricValue{}
	rate := func(p phase) float64 { return ratio(float64(p.ops), p.wall.Seconds()) }
	if !r.cfg.trace {
		_, setup, _ := quartiles(rec.SetupS)
		_, heap, _ := quartiles(r.heapsMB)
		vals := map[string]float64{
			"setup_s":      setup,
			"ops_per_s":    rate(r.untraced),
			"op_p50_us":    r.lat.quantile(0.50) / 1e3,
			"op_p99_us":    r.lat.quantile(0.99) / 1e3,
			"live_heap_mb": heap,
		}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else if r.traced.ops > 0 {
		layers := perLayerMetrics(&r.layers, r.tr)
		layers["trace.overhead_pct"] = 100 * (1 - ratio(rate(r.traced), rate(r.untraced)))
		for _, m := range perLayer {
			rec.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
		rec.Spans = r.tr.aggregates()
		if r.cfg.spans != "" {
			if err := writeSpans(r.cfg.spans, w.name, r.tr.spans); err != nil {
				rec.Problems = append(rec.Problems, err.Error())
			}
		}
	}
	ops := float64(rec.Attempted)
	rec.Info["samples"] = float64(r.lat.seen)
	rec.Info["op_p999_us"] = r.lat.quantile(0.999) / 1e3
	rec.Info["op_max_us"] = r.lat.max / 1e3
	rec.Info["fail_ratio"] = ratio(float64(rec.Failed), ops)
	rec.Info["sim_jiffies_per_op"] = ratio(r.net.jiffies, ops)
	rec.Info["net.packets_per_op"] = ratio(r.net.sent, ops)
	rec.Info["net.steps_per_op"] = ratio(r.net.steps, ops)
	rec.Correct = len(rec.Problems) == 0
	if rec.Attempted == 0 {
		rec.Attempted = 1 // a run always attempts; no op fit the time
		rec.Correct = false
		rec.Problems = append(rec.Problems, "no op completed in the measured phase")
	}
}
