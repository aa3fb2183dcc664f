package net

import (
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// recorderProto is a trivial StreamProto capturing what the host
// delivers through the modular interface.
type recorderProto struct {
	segments [][]byte
	srcs     []Addr
	ticks    int
}

func (p *recorderProto) ProtoName() string { return "recorder" }
func (p *recorderProto) HandleSegment(src Addr, payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	p.segments = append(p.segments, cp)
	p.srcs = append(p.srcs, src)
}
func (p *recorderProto) Tick(now uint64) { p.ticks++ }

func TestStreamProtoReceivesTCPTraffic(t *testing.T) {
	sim := NewSim(21)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, LinkParams{Delay: 1})

	rp := &recorderProto{}
	b.InstallStreamProto(rp)
	if b.StreamProtoName() != "recorder" {
		t.Fatalf("proto name = %s", b.StreamProtoName())
	}

	// Legacy host a connects toward b: its SYN must arrive at the
	// modular handler, not the legacy dispatcher.
	a.ConnectTCP(2, 80)
	sim.Run(5)
	if len(rp.segments) == 0 {
		t.Fatalf("modular proto saw no segments")
	}
	if rp.srcs[0] != 1 {
		t.Fatalf("src = %d", rp.srcs[0])
	}
	if rp.ticks == 0 {
		t.Fatalf("modular proto never ticked")
	}
	// UDP traffic still flows through the legacy path.
	us, _ := b.BindUDP(53)
	ca, _ := a.BindUDP(0)
	ca.SendTo(2, 53, []byte("dns"))
	sim.Run(5)
	buf := make([]byte, 8)
	if n, _, _, err := us.RecvFrom(buf); err != kbase.EOK || n != 3 {
		t.Fatalf("UDP broken by stream proto: (%d, %v)", n, err)
	}
}

func TestStreamProtoUninstallRevertsToLegacy(t *testing.T) {
	sim := NewSim(22)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, LinkParams{Delay: 1})

	rp := &recorderProto{}
	b.InstallStreamProto(rp)
	b.InstallStreamProto(nil) // revert
	if b.StreamProtoName() != "legacy-tcp" {
		t.Fatalf("proto name = %s", b.StreamProtoName())
	}
	// Legacy connection now completes normally.
	l, _ := b.ListenTCP(80)
	c, _ := a.ConnectTCP(2, 80)
	var srv *Socket
	ok := sim.RunUntil(func() bool {
		if srv == nil {
			if s, e := l.Accept(); e == kbase.EOK {
				srv = s
			}
		}
		return srv != nil && c.Established()
	}, 5000)
	if !ok {
		t.Fatalf("legacy path broken after uninstall")
	}
	if len(rp.segments) != 0 {
		t.Fatalf("uninstalled proto still receiving")
	}
}

func TestSendIPDownCall(t *testing.T) {
	sim := NewSim(23)
	a := sim.AddHost(1)
	b := sim.AddHost(2)
	sim.Link(1, 2, LinkParams{Delay: 1})
	rp := &recorderProto{}
	b.InstallStreamProto(rp)
	pkt := NewPacket(4)
	copy(pkt.Transport(), []byte{0xCA, 0xFE, 0xBA, 0xBE})
	if err := a.SendIP(2, ProtoTCP, pkt); err != kbase.EOK {
		t.Fatalf("SendIP: %v", err)
	}
	sim.Run(3)
	if len(rp.segments) != 1 || len(rp.segments[0]) != 4 || rp.segments[0][0] != 0xCA {
		t.Fatalf("raw payload not delivered: %v", rp.segments)
	}
	if a.Now() != sim.Clock().Now() {
		t.Fatalf("Now() disagrees with the sim clock")
	}
}
