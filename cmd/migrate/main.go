// Command migrate demonstrates the paper's incremental path end to
// end: boot a legacy kernel, run workloads and the fault-injection
// campaign, replace the file system and the transport one at a time,
// and re-validate after each step. This is the closest thing the
// repository has to "watching the roadmap happen".
package main

import (
	"flag"
	"fmt"
	"os"

	"safelinux/internal/faultinject"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/workload"
	"safelinux/pkg/safelinux"
)

func main() {
	seed := flag.Uint64("seed", 2021, "simulation seed")
	ops := flag.Int("ops", 2000, "workload operations per validation phase")
	campaign := flag.Bool("campaign", true, "run the fault-injection campaign at each stage")
	flag.Parse()

	k, err := safelinux.New(safelinux.Config{Seed: *seed, DiskBlocks: 16384, CaptureOops: true})
	if err.IsError() {
		fmt.Fprintf(os.Stderr, "migrate: boot failed: %v\n", err)
		os.Exit(1)
	}
	defer k.Close()

	fmt.Println("== stage 0: legacy kernel ==")
	fmt.Println(k.Describe())
	validate(k, *seed, *ops)

	fmt.Println("\n== stage 1: replace the file system (extlike -> safefs) ==")
	if err := k.UpgradeFS(); err.IsError() {
		fmt.Fprintf(os.Stderr, "migrate: UpgradeFS: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(k.Describe())
	validate(k, *seed+1, *ops)

	fmt.Println("\n== stage 2: replace the transport (legacy-tcp -> safetcp) ==")
	if err := k.UpgradeTCP(); err.IsError() {
		fmt.Fprintf(os.Stderr, "migrate: UpgradeTCP: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(k.Describe())
	validate(k, *seed+2, *ops)
	validateNet(k)

	fmt.Println("\n== final module report card ==")
	fmt.Println(k.ReportCard())

	fmt.Println("== registry audit trail ==")
	for _, e := range k.Registry.Trail() {
		fmt.Printf("%3d %-8s %-18s %-10s %s\n", e.Seq, e.Kind, e.Iface, e.Module, e.Detail)
	}

	if *campaign {
		fmt.Println("\n== fault-injection campaign (legacy vs safe modules) ==")
		fmt.Println(faultinject.Run(faultinject.Scenarios()).Render())
	}
}

// validate runs a mixed FS workload and reports health.
func validate(k *safelinux.Kernel, seed uint64, ops int) {
	w := workload.NewFS(workload.FSConfig{Seed: seed, Ops: ops, Mix: workload.MetadataHeavyMix()})
	stats := w.Run(k.VFS, k.Task)
	fmt.Printf("fs workload: %s\n", stats)
	if k.Recorder != nil {
		if n := k.Recorder.Count(""); n > 0 {
			fmt.Printf("!! %d kernel oopses during workload:\n", n)
			for _, e := range k.Recorder.Events() {
				fmt.Printf("   %s\n", e)
			}
			k.Recorder.Reset()
		} else {
			fmt.Println("no kernel oopses")
		}
	}
	if n := k.Checker.Count(); n > 0 {
		fmt.Printf("!! %d ownership violations\n", n)
	} else {
		fmt.Println("no ownership violations")
	}
}

// validateNet pushes a bulk transfer over whatever transport is
// installed.
func validateNet(k *safelinux.Kernel) {
	epA, epB := k.SafeEndpoints()
	if epA == nil {
		fmt.Println("net: safe endpoints not installed; skipping")
		return
	}
	l, e := epB.Listen(8080)
	if e.IsError() {
		fmt.Printf("net: listen failed: %v\n", e)
		return
	}
	c, _ := epA.Connect(2, 8080)
	var srv net.Stream
	k.Sim.RunUntil(func() bool {
		if srv == nil {
			if s, err := l.Accept(); err == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 10000)
	if srv == nil {
		fmt.Println("net: handshake failed")
		return
	}
	res := workload.Bulk(k.Sim, c, srv, 100_000, 9, 500_000)
	hostA, _ := k.Hosts()
	fmt.Printf("net bulk over %s: %d bytes, integrity=%v\n",
		hostA.StreamProtoName(), res.Bytes, res.Integrity)
}
