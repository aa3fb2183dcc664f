package safelinux

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safety/audit"
	"safelinux/internal/safety/module"
	"safelinux/internal/workload"
)

func bootKernel(t *testing.T) *Kernel {
	t.Helper()
	k, err := New(Config{Seed: 7, CaptureOops: true})
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(k.Close)
	return k
}

func TestBootLegacyKernel(t *testing.T) {
	k := bootKernel(t)
	if k.fsSafe.Load() || k.TCPSafe() {
		t.Fatalf("fresh kernel claims upgrades")
	}
	if k.Registry.MinLevel() != module.LevelLegacy {
		t.Fatalf("min level = %v", k.Registry.MinLevel())
	}
	fd, err := k.VFS.Open(k.Task, "/hello", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	k.VFS.Write(k.Task, fd, []byte("world"))
	k.VFS.Close(fd)
	if !strings.Contains(k.Describe(), "extlike") {
		t.Fatalf("Describe = %s", k.Describe())
	}
}

func readAll(t *testing.T, k *Kernel, path string) string {
	t.Helper()
	st, err := k.VFS.Stat(k.Task, path)
	if err != kbase.EOK {
		t.Fatalf("Stat(%s): %v", path, err)
	}
	fd, err := k.VFS.Open(k.Task, path, vfs.ORdOnly)
	if err != kbase.EOK {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer k.VFS.Close(fd)
	buf := make([]byte, st.Size)
	if _, err := k.VFS.Pread(k.Task, fd, buf, 0); err != kbase.EOK {
		t.Fatalf("Pread(%s): %v", path, err)
	}
	return string(buf)
}

func TestUpgradeFSCarriesState(t *testing.T) {
	k := bootKernel(t)
	// Populate a tree under the legacy FS.
	k.VFS.Mkdir(k.Task, "/etc")
	k.VFS.Mkdir(k.Task, "/etc/conf.d")
	for path, content := range map[string]string{
		"/etc/hostname":   "safelinux",
		"/etc/conf.d/net": "dhcp",
		"/rootfile":       "top",
	} {
		fd, err := k.VFS.Open(k.Task, path, vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open(%s): %v", path, err)
		}
		k.VFS.Write(k.Task, fd, []byte(content))
		k.VFS.Close(fd)
	}

	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	if !k.fsSafe.Load() {
		t.Fatalf("FSSafe false after upgrade")
	}
	// The whole tree survived the module replacement.
	if got := readAll(t, k, "/etc/hostname"); got != "safelinux" {
		t.Fatalf("/etc/hostname = %q", got)
	}
	if got := readAll(t, k, "/etc/conf.d/net"); got != "dhcp" {
		t.Fatalf("nested file = %q", got)
	}
	if got := readAll(t, k, "/rootfile"); got != "top" {
		t.Fatalf("root file = %q", got)
	}
	// The registry recorded the swap.
	inv := k.Registry.Inventory()
	found := false
	for _, b := range inv {
		if b.Iface.Name == IfaceFS && b.Module == "safefs" && b.Level == module.LevelVerified {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry missing safefs binding: %+v", inv)
	}
	// Upgrading twice is EALREADY.
	if err := k.UpgradeFS(); err != kbase.EALREADY {
		t.Fatalf("double upgrade: %v", err)
	}
	// The upgraded FS is live: new writes work.
	fd, err := k.VFS.Open(k.Task, "/post-upgrade", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("post-upgrade Open: %v", err)
	}
	k.VFS.Close(fd)
}

func TestUpgradeTCP(t *testing.T) {
	k := bootKernel(t)
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	if err := k.UpgradeTCP(); err != kbase.EALREADY {
		t.Fatalf("double upgrade: %v", err)
	}
	a, b := k.Hosts()
	if a.StreamProtoName() != "safetcp" || b.StreamProtoName() != "safetcp" {
		t.Fatalf("protos = %s/%s", a.StreamProtoName(), b.StreamProtoName())
	}
	// Connectivity over the swapped-in transport.
	epA, epB := k.SafeEndpoints()
	l, _ := epB.Listen(80)
	c, _ := epA.Connect(2, 80)
	established := k.Sim.RunUntil(func() bool {
		if s, e := l.Accept(); e == kbase.EOK {
			_ = s
		}
		return c.Established()
	}, 5000)
	if !established {
		t.Fatal("safe transport never established")
	}
}

func TestFullMigrationReachesOwnershipSafeMinimum(t *testing.T) {
	k := bootKernel(t)
	k.UpgradeFS()
	k.UpgradeTCP()
	if lvl := k.Registry.MinLevel(); lvl != module.LevelOwnershipSafe {
		t.Fatalf("min level after full migration = %v", lvl)
	}
	if !strings.Contains(k.Describe(), "safefs") || !strings.Contains(k.Describe(), "safetcp") {
		t.Fatalf("Describe = %s", k.Describe())
	}
}

func TestWorkloadAcrossMigration(t *testing.T) {
	k := bootKernel(t)
	w := workload.NewFS(workload.FSConfig{Seed: 3, Ops: 200, Mix: workload.MetadataHeavyMix()})
	before := w.Run(k.VFS, k.Task)
	if before.Ops == 0 {
		t.Fatalf("pre-upgrade workload ran nothing")
	}
	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	after := workload.NewFS(workload.FSConfig{Seed: 4, Ops: 200, Mix: workload.MetadataHeavyMix()}).Run(k.VFS, k.Task)
	if after.Ops == 0 {
		t.Fatalf("post-upgrade workload ran nothing")
	}
	// No kernel oopses during either phase.
	if n := k.Recorder.Count(""); n != 0 {
		t.Fatalf("oopses during migration: %v", k.Recorder.Events())
	}
}

func TestReportCardAndFigure1(t *testing.T) {
	k := bootKernel(t)
	k.UpgradeFS()
	card := k.ReportCard()
	if !strings.Contains(card, "safefs") || !strings.Contains(card, "verified") {
		t.Fatalf("report card:\n%s", card)
	}
	fig := k.Figure1([]audit.ModuleLoC{
		{Iface: IfaceFS, LoC: 2000},
		{Iface: IfaceStream, LoC: 1000},
	})
	if !strings.Contains(fig, "Linux") || !strings.Contains(fig, "safelinux-sim") {
		t.Fatalf("figure1:\n%s", fig)
	}
}

func TestConfigLinkAndNetPartition(t *testing.T) {
	// A lossless link via Config.Link, then a partition across a live
	// connection: sends fail typed, retransmission holds the data, and
	// healing delivers it.
	k, err := New(Config{Seed: 11, CaptureOops: true, Link: net.LinkParams{Delay: 1}})
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(k.Close)
	a, b := k.Hosts()
	l, _ := b.ListenTCP(80)
	c, _ := a.ConnectTCP(b.Addr(), 80)
	var srv *net.Socket
	if !k.Sim.RunUntil(func() bool {
		if s, e := l.Accept(); e == kbase.EOK {
			srv = s
		}
		return srv != nil && c.Established()
	}, 5000) {
		t.Fatal("connection never established")
	}

	k.PartitionNet(false)
	payload := []byte("across the partition")
	if err := c.Send(payload); err != kbase.EOK {
		t.Fatalf("Send: %v", err)
	}
	k.Sim.Run(50)
	if n, _ := srv.Recv(make([]byte, 64)); n != 0 {
		t.Fatalf("data crossed a full partition")
	}
	if ktrace.Read(a.CollectMetrics, "tx_errors") == 0 {
		t.Fatalf("partitioned sends not surfaced as tx errors")
	}

	k.HealNet()
	got := make([]byte, 64)
	var n int
	if !k.Sim.RunUntil(func() bool {
		if m, e := srv.Recv(got[n:]); e == kbase.EOK {
			n += m
		}
		return n >= len(payload)
	}, 10000) {
		t.Fatalf("healed link never delivered: %d/%d bytes", n, len(payload))
	}
	if string(got[:n]) != string(payload) {
		t.Fatalf("payload corrupted across partition: %q", got[:n])
	}
}
