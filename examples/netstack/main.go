// Netstack example: swap the TCP implementation behind the modular
// interface and watch the §4.1 pathology disappear.
//
// Phase 1 runs a bulk transfer over the legacy stack, whose TCB hangs
// off the socket's untyped private field — the type-confusion hazard
// the paper describes (net's TestPrivateStompDetected plants the stomp
// and shows the oops it causes). Phase 2 runs the identical workload
// over safetcp, where the same attack is unrepresentable, and shows the
// ownership ledger balancing.
//
//	go run ./examples/netstack
package main

import (
	"fmt"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/workload"
)

const transferBytes = 50_000

func main() {
	rec := &kbase.OopsRecorder{}
	kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(nil)

	fmt.Println("== phase 1: legacy TCP (TCB on the socket's untyped Private) ==")
	legacyPhase(rec)

	fmt.Println("\n== phase 2: safetcp behind the modular StreamProto interface ==")
	safePhase(rec)
}

func legacyPhase(rec *kbase.OopsRecorder) {
	sim := net.NewSim(7)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.05, ReorderJitter: 2})

	l, _ := b.ListenTCP(80)
	c, _ := a.ConnectTCP(2, 80)
	var srv *net.Socket
	sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000)
	res := workload.Bulk(sim, c, srv, transferBytes, 1, 200_000)
	fmt.Printf("bulk transfer: %d bytes, integrity=%v, sim stats=%+v\n",
		res.Bytes, res.Integrity, sim.Stats())
	fmt.Println("the TCB sits in the socket's untyped private field: any code in")
	fmt.Println("package net can overwrite it, and the next delivery then oopses.")
	fmt.Printf("kernel oopses this phase: %d\n", rec.Count(""))
	rec.Reset()
}

func safePhase(rec *kbase.OopsRecorder) {
	sim := net.NewSim(7)
	ha := sim.AddHost(1)
	hb := sim.AddHost(2)
	sim.Link(1, 2, net.LinkParams{Delay: 1, LossProb: 0.05, ReorderJitter: 2})

	a := safetcp.Attach(ha, nil)
	b := safetcp.Attach(hb, nil)
	fmt.Printf("hosts now run %q / %q\n", ha.StreamProtoName(), hb.StreamProtoName())

	l, _ := b.Listen(80)
	c, _ := a.Connect(2, 80)
	var srv *safetcp.Conn
	sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000)
	res := workload.Bulk(sim, c, srv, transferBytes, 1, 200_000)
	fmt.Printf("bulk transfer: %d bytes, integrity=%v, retransmits=%d\n",
		res.Bytes, res.Integrity, c.Retransmits)

	fmt.Println("the stomp attack has no equivalent here: connection state is")
	fmt.Println("a concrete *Conn — there is no untyped field to overwrite, and")
	fmt.Println("segments parse through a validating Result before any use.")
	fmt.Printf("kernel oopses this phase: %d\n", rec.Count(""))
	fmt.Printf("ownership ledger: %d live cells, %d violations\n",
		a.Checker().LiveCount(), a.Checker().Count())
}
