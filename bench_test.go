// Package bench is the benchmark harness: every table and figure in
// the paper has a bench that regenerates its data, plus the
// performance experiments behind the paper's qualitative claims
// (§4.3: ownership-sharing interfaces vs message passing; §4.3/§2:
// safe modules are performance-competitive; Step 1: the cost of
// modular interfaces; Step 4: the cost of check-time verification).
//
// Run everything:
//
//	go test -bench=. -benchmem
package bench

import (
	"fmt"
	"testing"

	"safelinux/internal/cvedb"
	"safelinux/internal/faultinject"
	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/bufcache"
	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/audit"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
	"safelinux/internal/workload"
	"safelinux/pkg/safelinux"
)

// --- Figure 1: the safety-vs-LoC landscape ---

func BenchmarkFig1Inventory(b *testing.B) {
	k, err := safelinux.New(safelinux.Config{Seed: 1, CaptureOops: true})
	if err.IsError() {
		b.Fatalf("boot: %v", err)
	}
	defer k.Close()
	k.UpgradeFS()
	k.UpgradeTCP()
	locs := []audit.ModuleLoC{
		{Iface: safelinux.IfaceFS, LoC: 3000},
		{Iface: safelinux.IfaceStream, LoC: 1500},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := k.Figure1(locs); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- Figure 2a/2b/2c and the §2 table ---

func BenchmarkFig2aCVEsPerYear(b *testing.B) {
	db := cvedb.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := db.CVEsPerYear()
		if len(series) != 11 {
			b.Fatalf("years = %d", len(series))
		}
	}
}

func BenchmarkFig2bExt4CDF(b *testing.B) {
	db := cvedb.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := db.LatencyCDF("fs/ext4", 2008)
		if len(cdf) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkFig2cBugsPerLoC(b *testing.B) {
	db := cvedb.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := db.BugsPerLoC()
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkCVECategorize(b *testing.B) {
	db := cvedb.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := db.Categorize()
		if rep.Total != cvedb.TotalCVEs {
			b.Fatalf("total = %d", rep.Total)
		}
	}
}

// --- §4.3: the three ownership-sharing models vs message passing ---
//
// The paper's claim: interfaces "semantically equivalent to message
// passing but sharing memory for performance" avoid the copy cost.
// MessagePassingCopy copies the payload through a channel (strict
// separation); the three ownership models transfer capability only.

var payloadSizes = []int{64, 4096, 65536, 1 << 20}

func BenchmarkMessagePassingCopy(b *testing.B) {
	for _, size := range payloadSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			src := make([]byte, size)
			ch := make(chan []byte, 1)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := make([]byte, size) // the copy message passing pays for
				copy(cp, src)
				ch <- cp
				got := <-ch
				got[0] = byte(i) // callee touches the message
			}
		})
	}
}

func BenchmarkOwnershipMove(b *testing.B) {
	for _, size := range payloadSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			ck := own.NewChecker(own.PolicyRecord)
			o := own.New(ck, "bench", make([]byte, size))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o = o.Move() // model 1: transfer, no copy
				ok := o.Use(func(p *[]byte) { (*p)[0] = byte(i) })
				if !ok {
					b.Fatal("use failed")
				}
			}
		})
	}
}

func BenchmarkOwnershipBorrowMut(b *testing.B) {
	for _, size := range payloadSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			ck := own.NewChecker(own.PolicyRecord)
			o := own.New(ck, "bench", make([]byte, size))
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, ok := o.BorrowMut() // model 2: exclusive lease
				if !ok {
					b.Fatal("borrow failed")
				}
				m.Update(func(p *[]byte) { (*p)[0] = byte(i) })
				m.Release()
			}
		})
	}
}

func BenchmarkOwnershipBorrowShared(b *testing.B) {
	for _, size := range payloadSizes {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			ck := own.NewChecker(own.PolicyRecord)
			o := own.New(ck, "bench", make([]byte, size))
			var sink byte
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, ok := o.Borrow() // model 3: shared read
				if !ok {
					b.Fatal("borrow failed")
				}
				r.With(func(p *[]byte) { sink = (*p)[0] })
				r.Release()
			}
			_ = sink
		})
	}
}

// BenchmarkRawPointerBaseline is the unchecked lower bound: what the
// ownership models would cost with a static (compile-time) checker.
func BenchmarkRawPointerBaseline(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
	}
}

// --- Step 1: modular interface overhead ---

type benchIface interface{ Poke() int }

type benchImpl struct{ n int }

func (m *benchImpl) Poke() int          { return m.n }
func (m *benchImpl) ModuleName() string { return "bench" }
func (m *benchImpl) Implements() module.Interface {
	return module.Interface{Name: "bench.iface", Version: 1}
}
func (m *benchImpl) Level() module.SafetyLevel { return module.LevelTypeSafe }

func BenchmarkDirectCall(b *testing.B) {
	impl := &benchImpl{n: 7}
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += impl.Poke()
	}
	_ = sink
}

func BenchmarkModuleInterfaceCall(b *testing.B) {
	reg := module.NewRegistry()
	reg.Declare(module.Interface{Name: "bench.iface", Version: 1})
	reg.Bind(&benchImpl{n: 7})
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := module.Get[benchIface](reg, "bench.iface")
		if err != kbase.EOK {
			b.Fatal(err)
		}
		sink += m.Poke()
	}
	_ = sink
}

func BenchmarkModuleInterfaceCallCachedLookup(b *testing.B) {
	reg := module.NewRegistry()
	reg.Declare(module.Interface{Name: "bench.iface", Version: 1})
	reg.Bind(&benchImpl{n: 7})
	m, err := module.Get[benchIface](reg, "bench.iface")
	if err != kbase.EOK {
		b.Fatal(err)
	}
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Poke()
	}
	_ = sink
}

// --- §4.3/§2: legacy vs safe file system under real workloads ---

func fsBenchSetup(b *testing.B, fsName string) (*vfs.VFS, *kbase.Task, *blockdev.Device) {
	b.Helper()
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	b.Cleanup(func() { kbase.InstallRecorder(prev) })
	dev := blockdev.New(blockdev.Config{Blocks: 65536, BlockSize: 512, Rng: kbase.NewRng(1)})
	v := vfs.New(nil)
	task := kbase.NewTask()
	switch fsName {
	case "extlike":
		if _, err := extlike.Mkfs(dev, extlike.MkfsOptions{}); err.IsError() {
			b.Fatalf("mkfs: %v", err)
		}
		if err := v.RegisterFS(&extlike.FS{}); err.IsError() {
			b.Fatalf("register: %v", err)
		}
		if err := v.Mount(task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: dev})); err.IsError() {
			b.Fatalf("mount: %v", err)
		}
	case "safefs":
		if err := safefs.Format(dev); err.IsError() {
			b.Fatalf("format: %v", err)
		}
		if err := v.RegisterFS(&safefs.FS{SyncOnCommit: true}); err.IsError() {
			b.Fatalf("register: %v", err)
		}
		if err := v.Mount(task, "/", "safefs", vfs.NewMountData(&safefs.MountData{Disk: dev})); err.IsError() {
			b.Fatalf("mount: %v", err)
		}
	}
	return v, task, dev
}

// benchFS runs the op mix on a fresh volume and reports, beside the
// wall time, the device reads and writes each op costs: the
// architecture-level price of the file system's design.
func benchFS(b *testing.B, fsName string, mix workload.FSMix) {
	v, task, dev := fsBenchSetup(b, fsName)
	devOps := func() (reads, writes uint64) {
		return ktrace.Read(dev.CollectMetrics, "reads"), ktrace.Read(dev.CollectMetrics, "writes")
	}
	reads0, writes0 := devOps()
	b.ResetTimer()
	done := 0
	for done < b.N {
		chunk := b.N - done
		if chunk > 2000 {
			chunk = 2000
		}
		w := workload.NewFS(workload.FSConfig{Seed: uint64(done + 1), Ops: chunk, Mix: mix})
		w.Run(v, task)
		done += chunk
	}
	b.StopTimer()
	reads, writes := devOps()
	b.ReportMetric(float64(reads-reads0)/float64(b.N), "dev-reads/op")
	b.ReportMetric(float64(writes-writes0)/float64(b.N), "dev-writes/op")
}

func BenchmarkFSLegacyDataHeavy(b *testing.B)     { benchFS(b, "extlike", workload.DataHeavyMix()) }
func BenchmarkFSSafeDataHeavy(b *testing.B)       { benchFS(b, "safefs", workload.DataHeavyMix()) }
func BenchmarkFSLegacyMetadataHeavy(b *testing.B) { benchFS(b, "extlike", workload.MetadataHeavyMix()) }
func BenchmarkFSSafeMetadataHeavy(b *testing.B)   { benchFS(b, "safefs", workload.MetadataHeavyMix()) }

// --- legacy vs safe transport: bulk throughput in simulation steps ---

// BenchmarkTCPBulk moves 64 KiB over a 2%-loss link per op, once per
// stack: the legacy socket layer, and safetcp attached through the
// modular interface.
func BenchmarkTCPBulk(b *testing.B) {
	for _, st := range []struct {
		name string
		on   func(*net.Host) net.StreamStack
	}{
		{"legacy", func(h *net.Host) net.StreamStack { return h }},
		{"safe", func(h *net.Host) net.StreamStack { return safetcp.Attach(h, nil) }},
	} {
		b.Run(st.name, func(b *testing.B) {
			rec := &kbase.OopsRecorder{}
			prev := kbase.InstallRecorder(rec)
			defer kbase.InstallRecorder(prev)
			b.SetBytes(65536)
			for i := 0; i < b.N; i++ {
				sim := net.NewSim(uint64(i + 1))
				ha, hb := sim.AddHost(1), sim.AddHost(2)
				sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.02})
				client, server := st.on(ha), st.on(hb)
				lst, _ := server.ListenStream(80)
				c, _ := client.DialStream(2, 80)
				var srv net.Stream
				sim.RunUntil(func() bool {
					if srv == nil {
						srv, _ = lst.AcceptStream()
					}
					return srv != nil && c.Established()
				}, 5000)
				if res := workload.Bulk(sim, c, srv, 65536, 1, 200_000); !res.Integrity {
					b.Fatal("corrupted transfer")
				}
			}
		})
	}
}

// --- Step 4: the cost of check-time verification ---

// BenchmarkSafefsRawOps measures safefs operations without the
// refinement checker (production mode).
func BenchmarkSafefsRawOps(b *testing.B) {
	a := &safefs.SpecAdapter{Seed: 1, SyncOnCommit: true, Blocks: 4096, BlockSize: 512}
	if err := a.Reset(); err.IsError() {
		b.Fatalf("reset: %v", err)
	}
	ops := refinementOps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		a.Apply(op)
	}
}

// BenchmarkSafefsCheckedOps measures the same operations with the
// model advanced and the abstraction function compared at every step
// (verification mode).
func BenchmarkSafefsCheckedOps(b *testing.B) {
	sp := safefs.FSSpec()
	ops := refinementOps()
	b.ResetTimer()
	done := 0
	for done < b.N {
		a := &safefs.SpecAdapter{Seed: 1, SyncOnCommit: true, Blocks: 4096, BlockSize: 512}
		rep := spec.Check(sp, a, ops)
		if !rep.Ok() {
			b.Fatalf("refinement failed: %v", rep.Failures)
		}
		done += rep.Steps
	}
}

func refinementOps() []spec.Op {
	return []spec.Op{
		{Name: "mkdir", Args: []any{"d"}},
		{Name: "create", Args: []any{"d/f"}},
		{Name: "write", Args: []any{"d/f", 0, "payload"}},
		{Name: "truncate", Args: []any{"d/f", 3}},
		{Name: "rename", Args: []any{"d/f", "d/g"}},
		{Name: "unlink", Args: []any{"d/g"}},
		{Name: "rmdir", Args: []any{"d"}},
	}
}

// --- the §3 roadmap-effectiveness campaign ---

func BenchmarkFaultCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := faultinject.Run(faultinject.Scenarios())
		if rep.PreventedCount() != len(rep.Results) {
			b.Fatalf("campaign regressed: %d/%d", rep.PreventedCount(), len(rep.Results))
		}
	}
}

// --- buffer-state audit (the §4.4 state-space sweep) ---

// BenchmarkBufferFlagStateSpace sweeps all 2^16 buffer_head flag
// combinations against the validity rules — the quantitative backdrop
// for "not all of the combinations are valid".
func BenchmarkBufferFlagStateSpace(b *testing.B) {
	rules := bufcache.DefaultRules()
	for i := 0; i < b.N; i++ {
		rep := bufcache.AuditStateSpace(rules)
		if rep.Valid == 0 {
			b.Fatal("no valid states")
		}
	}
}

// --- §5 related work: the restricted-extension alternative ---

// BenchmarkEbpflikeFilter measures the verified-bytecode packet
// filter; BenchmarkNativeFilter is the same predicate as compiled Go.
// The gap is the interpretation tax of the eBPF-style mechanism; its
// other limit (no loops, no state) is enforced by the verifier and
// demonstrated in the ebpflike tests.
func BenchmarkEbpflikeFilter(b *testing.B) {
	prog, err := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpMov, Dst: 1, Imm: 0},
		{Op: ebpflike.OpLdCtx, Dst: 2, Src: 1, Imm: 8},
		{Op: ebpflike.OpMov, Dst: 3, Imm: 6},
		{Op: ebpflike.OpJEq, Dst: 2, Src: 3, Off: 2},
		{Op: ebpflike.OpMov, Dst: 0, Imm: 1},
		{Op: ebpflike.OpRet, Dst: 0},
		{Op: ebpflike.OpMov, Dst: 0, Imm: 0},
		{Op: ebpflike.OpRet, Dst: 0},
	}, 12)
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 64)
	pkt[8] = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, e := prog.Run(pkt); e != kbase.EOK || v != 0 {
			b.Fatal("filter broken")
		}
	}
}

func BenchmarkNativeFilter(b *testing.B) {
	filter := func(pkt []byte) uint64 {
		if len(pkt) > 8 && pkt[8] == 6 {
			return 0
		}
		return 1
	}
	pkt := make([]byte, 64)
	pkt[8] = 6
	for i := 0; i < b.N; i++ {
		if filter(pkt) != 0 {
			b.Fatal("filter broken")
		}
	}
}
