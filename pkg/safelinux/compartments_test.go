package safelinux

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/compartment"
)

func bootCompartmented(t *testing.T, cfg Config) *Kernel {
	t.Helper()
	cfg.Compartments = true
	cfg.CaptureOops = true
	k, err := New(cfg)
	if err != kbase.EOK {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(k.Close)
	return k
}

// lastFault returns the newest entry in the plane's fault log.
func lastFault(t *testing.T, k *Kernel) compartment.Fault {
	t.Helper()
	faults := k.Plane.Faults()
	if len(faults) == 0 {
		t.Fatalf("no fault recorded")
	}
	return faults[len(faults)-1]
}

func TestCompartmentsBootAndWire(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 11})
	want := []string{"fs", "net", "buf", "kio", "ebpf"}
	got := k.Plane.Names()
	if len(got) != len(want) {
		t.Fatalf("compartments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compartments = %v, want %v", got, want)
		}
	}
	if !k.Plane.AllHealthy() {
		t.Fatalf("fresh plane not healthy")
	}
	// Normal operation flows through the boundaries untouched.
	fd, err := k.VFS.Open(k.Task, "/f", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	if _, err := k.VFS.Write(k.Task, fd, []byte("data")); err != kbase.EOK {
		t.Fatalf("Write: %v", err)
	}
	k.VFS.Close(fd)
	if readAll(t, k, "/f") != "data" {
		t.Fatalf("read back mismatch")
	}
	if ktrace.Read(k.Plane.Get("fs").CollectMetrics, "inflight") != 0 {
		t.Fatalf("inflight stuck nonzero")
	}
}

// TestFSFaultQuarantineRestart is the fs quarantine-semantics
// scenario: an injected panic inside a VFS call comes back as EFAULT,
// the compartment quarantines and then auto-restarts (remount with
// journal recovery), previously committed data survives, and revoked
// descriptors fail EBADF.
func TestFSFaultQuarantineRestart(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 12})
	fd, err := k.VFS.Open(k.Task, "/keep", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	k.VFS.Write(k.Task, fd, []byte("survives"))
	k.VFS.Fsync(k.Task, fd)

	comp := k.Plane.Get("fs")
	comp.InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/keep"); err != kbase.EFAULT {
		t.Fatalf("faulted op = %v, want EFAULT", err)
	}
	if !k.Plane.WaitHealthy("fs", 5*time.Second) {
		t.Fatalf("fs did not restart; state=%v", comp.State())
	}
	k.Plane.Settle()
	// The old descriptor was revoked by the restart.
	if _, err := k.VFS.Write(k.Task, fd, []byte("x")); err != kbase.EBADF {
		t.Fatalf("revoked fd write = %v, want EBADF", err)
	}
	// Journal-recovered contents are intact.
	if got := readAll(t, k, "/keep"); got != "survives" {
		t.Fatalf("after restart: %q, want %q", got, "survives")
	}
	if ktrace.Read(comp.CollectMetrics, "restarts") == 0 {
		t.Fatalf("no restart recorded")
	}
}

// TestQuarantineFailsFastManualRestart pins the quarantine semantics
// with auto-restart off: quarantined calls return ESHUTDOWN
// immediately (no blocking), a manual restart clears the quarantine.
func TestQuarantineFailsFastManualRestart(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 13})
	k.Plane.SetAutoRestart(false)
	k.Plane.Get("fs").InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/"); err != kbase.EFAULT {
		t.Fatalf("fault = %v", err)
	}
	done := make(chan kbase.Errno, 1)
	go func() {
		_, err := k.VFS.Stat(k.Task, "/")
		done <- err
	}()
	select {
	case err := <-done:
		if err != kbase.ESHUTDOWN {
			t.Fatalf("quarantined op = %v, want ESHUTDOWN", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("quarantined op blocked instead of failing fast")
	}
	if err := k.Plane.Restart("fs"); err != kbase.EOK {
		t.Fatalf("Restart: %v", err)
	}
	if _, err := k.VFS.Stat(k.Task, "/"); err != kbase.EOK {
		t.Fatalf("post-restart op = %v", err)
	}
}

// TestFSPoisonedEnumeration upgrades to safefs, then faults the fs
// compartment and asserts the quarantine report enumerates the live
// safefs-owned state by label.
func TestFSPoisonedEnumeration(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 14})
	k.Plane.SetAutoRestart(false)
	fd, _ := k.VFS.Open(k.Task, "/poisoned", vfs.OWrOnly|vfs.OCreate)
	k.VFS.Write(k.Task, fd, []byte("cells"))
	k.VFS.Close(fd)
	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	comp := k.Plane.Get("fs")
	comp.InjectPanic(1)
	if _, err := k.VFS.Stat(k.Task, "/poisoned"); err != kbase.EFAULT {
		t.Fatalf("fault = %v", err)
	}
	f := lastFault(t, k)
	found := false
	for _, l := range f.Poisoned {
		if strings.Contains(l, "poisoned") {
			found = true
		}
		if !strings.HasPrefix(l, "safefs:") {
			t.Fatalf("foreign label %q in poison report", l)
		}
	}
	if !found {
		t.Fatalf("poison report %v missing the file's safefs cell", f.Poisoned)
	}
}

// TestNetFaultContainedAndRestarted is the net quarantine-semantics
// scenario: a panic in packet dispatch is contained (packets drop,
// counted, kernel lives), the supervisor re-attaches the transport,
// and — after an upgrade — the poison report names live safetcp
// buffers.
func TestNetFaultContainedAndRestarted(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 15, Link: netNoLoss()})
	if err := k.StreamRoundTrip(4000, []byte("before")); err != kbase.EOK {
		t.Fatalf("legacy round trip: %v", err)
	}
	comp := k.Plane.Get("net")
	comp.InjectPanic(1)
	// Drive the sim: the next guarded dispatch faults and quarantines;
	// subsequent drops are contained, not crashes.
	k.Sim.Run(5)
	k.Plane.Settle()
	if !k.Plane.WaitHealthy("net", 5*time.Second) {
		t.Fatalf("net did not restart; state=%v", comp.State())
	}
	hostA, hostB := k.Hosts()
	if ktrace.Read(hostA.CollectMetrics, "contained")+ktrace.Read(hostB.CollectMetrics, "contained") == 0 {
		t.Fatalf("no contained drops counted")
	}
	if err := k.StreamRoundTrip(4001, []byte("after-restart")); err != kbase.EOK {
		t.Fatalf("round trip after restart: %v", err)
	}
	if ktrace.Read(comp.CollectMetrics, "restarts") == 0 {
		t.Fatalf("no restart recorded")
	}
}

// TestNetPoisonedEnumeration faults the net compartment mid-stream on
// the safe transport and asserts the report lists live safetcp cells.
func TestNetPoisonedEnumeration(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 16, Link: netNoLoss()})
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	k.Plane.SetAutoRestart(false)
	epA, epB := k.SafeEndpoints()
	ls, err := epB.Listen(5000)
	if err != kbase.EOK {
		t.Fatalf("Listen: %v", err)
	}
	cl, err := epA.Connect(k.hostB.Addr(), 5000)
	if err != kbase.EOK {
		t.Fatalf("Connect: %v", err)
	}
	var srv *safetcp.Conn
	if !k.Sim.RunUntil(func() bool {
		if srv == nil {
			srv, _ = ls.Accept()
		}
		return srv != nil && cl.Established()
	}, 2000) {
		t.Fatalf("handshake did not complete")
	}
	// Put bytes on the wire so receive buffers are live, then fault
	// before they are consumed.
	cl.Send([]byte("poison-payload"))
	k.Sim.RunUntil(func() bool { return srv.Buffered() > 0 }, 2000)
	comp := k.Plane.Get("net")
	comp.InjectPanic(1)
	k.Sim.Run(3)
	f := lastFault(t, k)
	found := false
	for _, l := range f.Poisoned {
		if strings.HasPrefix(l, "safetcp.rx.") {
			found = true
		}
	}
	if !found {
		t.Fatalf("poison report %v missing live safetcp.rx cells", f.Poisoned)
	}
}

// TestUpgradeFSUnderLoad upgrades extlike→safefs on a compartmented
// kernel while fs workers hammer the VFS: zero operations fail, data
// written before and during the swap survives, and the registry
// records the new binding.
func TestUpgradeFSUnderLoad(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 17})
	const workers = 4
	const opsPer = 150
	var wg sync.WaitGroup
	errs := make(chan string, workers*opsPer)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			task := kbase.NewTask()
			for i := 0; i < opsPer; i++ {
				path := fmt.Sprintf("/w%d-%d", w, i)
				fd, err := k.VFS.Open(task, path, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					errs <- fmt.Sprintf("open %s: %v", path, err)
					continue
				}
				if _, err := k.VFS.Write(task, fd, []byte(path)); err != kbase.EOK {
					errs <- fmt.Sprintf("write %s: %v", path, err)
				}
				if err := k.VFS.Close(fd); err != kbase.EOK {
					errs <- fmt.Sprintf("close %s: %v", path, err)
				}
			}
		}(w)
	}
	// Let the workers get going, then swap live.
	time.Sleep(2 * time.Millisecond)
	if err := k.UpgradeFS(); err != kbase.EOK {
		t.Fatalf("UpgradeFS: %v", err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("worker op failed across swap: %s", e)
	}
	if !k.fsSafe {
		t.Fatalf("kernel does not report fsSafe after UpgradeFS")
	}
	mod, err := k.Registry.Lookup(IfaceFS)
	if err != kbase.EOK || mod.ModuleName() != "safefs" {
		t.Fatalf("registry binding = %v/%v", mod, err)
	}
	if ktrace.Read(k.Plane.Get("fs").CollectMetrics, "swaps") != 1 {
		t.Fatalf("swap not recorded on the fs compartment")
	}
	// Every file written by every worker is present on the new fs.
	for w := 0; w < workers; w++ {
		for i := 0; i < opsPer; i++ {
			path := fmt.Sprintf("/w%d-%d", w, i)
			if _, err := k.VFS.Stat(k.Task, path); err != kbase.EOK {
				t.Fatalf("%s missing after swap: %v", path, err)
			}
		}
	}
	if err := k.UpgradeFS(); err != kbase.EALREADY {
		t.Fatalf("second UpgradeFS = %v, want EALREADY", err)
	}
}

// TestUpgradeNetUnderLoad upgrades legacy TCB→safetcp between client
// interactions driven through StreamRoundTrip: no interaction fails,
// interactions after the swap run on the safe transport.
func TestUpgradeNetUnderLoad(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 18, Link: netNoLoss()})
	done := make(chan struct{})
	var rtErrs []string
	var rtCount int
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			payload := []byte(fmt.Sprintf("interaction-%d", i))
			if err := k.StreamRoundTrip(uint16(6000+i), payload); err != kbase.EOK {
				rtErrs = append(rtErrs, fmt.Sprintf("rt %d: %v", i, err))
			}
			rtCount++
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := k.UpgradeTCP(); err != kbase.EOK {
		t.Fatalf("UpgradeTCP: %v", err)
	}
	<-done
	for _, e := range rtErrs {
		t.Errorf("round trip failed across swap: %s", e)
	}
	if rtCount != 30 {
		t.Fatalf("driver stopped early: %d/30", rtCount)
	}
	if !k.TCPSafe() {
		t.Fatalf("kernel does not report tcpSafe after UpgradeTCP")
	}
	mod, err := k.Registry.Lookup(IfaceStream)
	if err != kbase.EOK || mod.ModuleName() != "safetcp" {
		t.Fatalf("registry binding = %v/%v", mod, err)
	}
	epA, epB := k.SafeEndpoints()
	if epA == nil || epB == nil {
		t.Fatalf("safe endpoints not attached by UpgradeTCP")
	}
}

// TestUpgradeUnderMixedLoad replaces both modules of a running,
// compartmented kernel while a mixed workload keeps going: fs workers
// overwrite a bounded file set and read each file back, and one driver
// runs stream round trips beside them. UpgradeFS and then UpgradeTCP
// each drain their compartment, so no operation may fail, every file
// must hold its payload on the new file system, and each compartment
// must record exactly one swap.
func TestUpgradeUnderMixedLoad(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 19, Link: netNoLoss()})
	const workers, filesPer = 4, 8
	path := func(w, f int) string { return fmt.Sprintf("/mix%d_f%d", w, f) }
	payload := func(p string) []byte { return []byte("payload:" + p) }

	var fsOps [workers]atomic.Int64
	var rtOps atomic.Int64
	var mu sync.Mutex
	var fails []string
	fail := func(format string, args ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := kbase.NewTask()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := path(w, i%filesPer)
				want := payload(p)
				fd, err := k.VFS.Open(task, p, vfs.ORdWr|vfs.OCreate|vfs.OTrunc)
				if err != kbase.EOK {
					fail("open %s: %v", p, err)
					return
				}
				if _, err := k.VFS.Write(task, fd, want); err != kbase.EOK {
					fail("write %s: %v", p, err)
				}
				if n, err := k.VFS.Pread(task, fd, buf, 0); err != kbase.EOK || !bytes.Equal(buf[:n], want) {
					fail("pread %s = %q, %v", p, buf[:n], err)
				}
				if err := k.VFS.Close(fd); err != kbase.EOK {
					fail("close %s: %v", p, err)
				}
				fsOps[w].Add(1)
			}
		}()
	}
	// One network driver: the packet sim is single-threaded, so one
	// goroutine owns every round trip. Ports cycle through a range
	// wide enough that a reused one has long left TIME_WAIT.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			port := uint16(9000 + i%16384)
			select {
			case <-stop:
				return
			default:
			}
			if err := k.StreamRoundTrip(port, []byte("mixed")); err != kbase.EOK {
				fail("round trip port %d: %v", port, err)
				return
			}
			rtOps.Add(1)
		}
	}()
	halt := func() {
		close(stop)
		wg.Wait()
	}
	// progress waits until every fs worker has rewritten each of its
	// files and the driver has completed a few more round trips, so
	// each upgrade lands in running traffic and each new module serves
	// some of it.
	progress := func(phase string) {
		var fs0 [workers]int64
		for w := range fsOps {
			fs0[w] = fsOps[w].Load()
		}
		rt0 := rtOps.Load()
		moved := func() bool {
			for w := range fsOps {
				if fsOps[w].Load() < fs0[w]+filesPer {
					return false
				}
			}
			return rtOps.Load() >= rt0+4
		}
		deadline := time.Now().Add(10 * time.Second)
		for !moved() {
			mu.Lock()
			failed := len(fails) > 0
			mu.Unlock()
			if failed || time.Now().After(deadline) {
				halt()
				t.Fatalf("%s: load stopped (%d round trips): %v", phase, rtOps.Load(), fails)
			}
			time.Sleep(time.Millisecond)
		}
	}
	progress("before UpgradeFS")
	if err := k.UpgradeFS(); err != kbase.EOK {
		halt()
		t.Fatalf("UpgradeFS: %v", err)
	}
	progress("after UpgradeFS")
	if err := k.UpgradeTCP(); err != kbase.EOK {
		halt()
		t.Fatalf("UpgradeTCP: %v", err)
	}
	progress("after UpgradeTCP")
	halt()

	for _, f := range fails {
		t.Errorf("op failed across an upgrade: %s", f)
	}
	if !k.fsSafe || !k.TCPSafe() {
		t.Fatalf("not on the safe modules after the upgrades: fs %v, tcp %v", k.fsSafe, k.TCPSafe())
	}
	if !k.Plane.AllHealthy() {
		t.Fatalf("plane unhealthy after the upgrades")
	}
	for w := 0; w < workers; w++ {
		for f := 0; f < filesPer; f++ {
			if got := readAll(t, k, path(w, f)); got != string(payload(path(w, f))) {
				t.Errorf("%s = %q after the upgrades", path(w, f), got)
			}
		}
	}
	for _, name := range []string{"fs", "net"} {
		if n := ktrace.Read(k.Plane.Get(name).CollectMetrics, "swaps"); n != 1 {
			t.Errorf("%s compartment recorded %d swaps, want 1", name, n)
		}
	}
}

// TestFaultInOneCompartmentLeavesOthersServing injects a panic into
// the buf compartment while fs-level traffic continues on other paths
// and the net compartment serves round trips: the blast radius is the
// faulted compartment only.
func TestFaultInOneCompartmentLeavesOthersServing(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 19, Link: netNoLoss()})
	k.Plane.Get("buf").InjectPanic(1)
	// Trip the buf boundary: a write path touches the cache.
	fd, err := k.VFS.Open(k.Task, "/tripwire", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK && err != kbase.EFAULT {
		t.Fatalf("Open: %v", err)
	}
	if err == kbase.EOK {
		k.VFS.Write(k.Task, fd, []byte("x"))
		k.VFS.Fsync(k.Task, fd)
		k.VFS.Close(fd)
	}
	if len(k.Plane.Faults()) == 0 {
		// The injected fault may not have tripped yet if no cache entry
		// was crossed; force one.
		k.VFS.SyncAll(k.Task)
	}
	// Net keeps serving regardless of buf's state.
	if err := k.StreamRoundTrip(4700, []byte("unaffected")); err != kbase.EOK {
		t.Fatalf("net round trip during buf fault: %v", err)
	}
	if !k.Plane.WaitHealthy("buf", 5*time.Second) {
		t.Fatalf("buf did not restart")
	}
	k.Plane.Settle()
	// fs traffic is healthy again end to end.
	fd2, err := k.VFS.Open(k.Task, "/after", vfs.OWrOnly|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open after restart: %v", err)
	}
	k.VFS.Write(k.Task, fd2, []byte("y"))
	k.VFS.Close(fd2)
}

// TestBufRestartKeepsCommittedMetadata faults the buf compartment
// while committed metadata is still waiting for its checkpoint. The
// restart must keep what the journal holds: files committed before the
// fault read back, a descriptor opened before it keeps working, new
// files allocate cleanly on top, and the volume fscks clean.
func TestBufRestartKeepsCommittedMetadata(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 23})
	content := func(i int) string { return fmt.Sprintf("file %d: %s", i, strings.Repeat("x", 40*i)) }
	// Data survives a restart once fsynced; the creates' metadata is
	// committed but not checkpointed.
	durable := func(path, data string) {
		t.Helper()
		fd, err := k.VFS.Open(k.Task, path, vfs.OWrOnly|vfs.OCreate)
		if err != kbase.EOK {
			t.Fatalf("Open(%s): %v", path, err)
		}
		defer k.VFS.Close(fd)
		if _, err := k.VFS.Write(k.Task, fd, []byte(data)); err != kbase.EOK {
			t.Fatalf("Write(%s): %v", path, err)
		}
		if err := k.VFS.Fsync(k.Task, fd); err != kbase.EOK {
			t.Fatalf("Fsync(%s): %v", path, err)
		}
	}
	for i := range 6 {
		durable(fmt.Sprintf("/pre%d", i), content(i))
	}
	fd, err := k.VFS.Open(k.Task, "/pre0", vfs.ORdWr)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	defer k.VFS.Close(fd)
	root, err := k.VFS.Resolve(k.Task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		t.Fatal("root is not extlike")
	}
	if ktrace.Read(inst.Journal().CollectMetrics, "checkpoints") != 0 || inst.Cache().DirtyCount() == 0 {
		t.Fatal("no committed metadata waits for a checkpoint")
	}

	k.Plane.Get("buf").InjectPanic(1)
	buf := make([]byte, 64)
	if _, err := k.VFS.Pread(k.Task, fd, buf, 0); err != kbase.EFAULT {
		t.Fatalf("faulted Pread = %v, want EFAULT", err)
	}
	if !k.Plane.WaitHealthy("buf", 5*time.Second) {
		t.Fatal("buf did not restart")
	}
	k.Plane.Settle()

	for i := range 4 {
		durable(fmt.Sprintf("/post%d", i), content(10+i))
	}
	for i := range 6 {
		if got := readAll(t, k, fmt.Sprintf("/pre%d", i)); got != content(i) {
			t.Fatalf("/pre%d after the restart = %q, want %q", i, got, content(i))
		}
	}
	for i := range 4 {
		if got := readAll(t, k, fmt.Sprintf("/post%d", i)); got != content(10+i) {
			t.Fatalf("/post%d = %q, want %q", i, got, content(10+i))
		}
	}
	n, err := k.VFS.Pread(k.Task, fd, buf, 0)
	if err != kbase.EOK || string(buf[:n]) != content(0) {
		t.Fatalf("old descriptor Pread = %q, %v; want %q", buf[:n], err, content(0))
	}
	if _, err := k.VFS.Pwrite(k.Task, fd, []byte("FILE"), 0); err != kbase.EOK {
		t.Fatalf("old descriptor Pwrite: %v", err)
	}
	if err := k.VFS.Fsync(k.Task, fd); err != kbase.EOK {
		t.Fatalf("old descriptor Fsync: %v", err)
	}
	if got, want := readAll(t, k, "/pre0"), "FILE"+content(0)[4:]; got != want {
		t.Fatalf("/pre0 after the rewrite = %q, want %q", got, want)
	}
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		t.Fatalf("SyncAll: %v", err)
	}
	if rep, err := extlike.Fsck(k.rootDev); err != kbase.EOK || !rep.Clean() {
		t.Fatalf("Fsck (%v):\n%s", err, rep.Summary())
	}
}

// TestBufFaultInRangeReadContained faults the buf gate on the one
// crossing that copies a nine-block Pread out of the cache. The read
// comes back EFAULT, the compartment restarts on its own, the same
// Pread then returns the file's bytes, and no cached buffer is left
// holding a reference.
func TestBufFaultInRangeReadContained(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 24})
	fd, err := k.VFS.Open(k.Task, "/range", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	defer k.VFS.Close(fd)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i*31 + i>>9)
	}
	if _, err := k.VFS.Pwrite(k.Task, fd, data, 0); err != kbase.EOK {
		t.Fatalf("Pwrite: %v", err)
	}
	if err := k.VFS.Fsync(k.Task, fd); err != kbase.EOK {
		t.Fatalf("Fsync: %v", err)
	}
	// Bytes 2348..6443: blocks 4..12, across the direct/indirect edge.
	const off = 2348
	buf := make([]byte, 4096)
	if _, err := k.VFS.Pread(k.Task, fd, buf, off); err != kbase.EOK {
		t.Fatalf("Pread: %v", err)
	}

	comp := k.Plane.Get("buf")
	comp.InjectPanic(2) // entry 1 reads the indirect block, entry 2 copies the range
	if _, err := k.VFS.Pread(k.Task, fd, buf, off); err != kbase.EFAULT {
		t.Fatalf("faulted Pread = %v, want EFAULT", err)
	}
	if f := lastFault(t, k); f.Compartment != "buf" || !strings.Contains(f.Panic, "copy_out") {
		t.Fatalf("fault = %s %q, want buf in copy_out", f.Compartment, f.Panic)
	}
	if !k.Plane.WaitHealthy("buf", 5*time.Second) {
		t.Fatalf("buf did not restart; state=%v", comp.State())
	}
	k.Plane.Settle()

	clear(buf)
	n, err := k.VFS.Pread(k.Task, fd, buf, off)
	if err != kbase.EOK || n != len(buf) || !bytes.Equal(buf, data[off:off+len(buf)]) {
		t.Fatalf("Pread after the restart = %d, %v; bytes match: %v", n, err, bytes.Equal(buf, data[off:off+len(buf)]))
	}
	root, err := k.VFS.Resolve(k.Task, "/")
	if err != kbase.EOK {
		t.Fatalf("Resolve: %v", err)
	}
	inst, ok := extlike.InstanceOf(root.Sb)
	if !ok {
		t.Fatal("root is not extlike")
	}
	// A buffer nobody holds has refcount 1 while this scan holds it.
	cache := inst.Cache()
	for b := uint64(0); b < cache.Device().Blocks(); b++ {
		bh, err := cache.GetBlk(b)
		if err != kbase.EOK {
			t.Fatalf("GetBlk(%d): %v", b, err)
		}
		if rc := bh.Refcount(); rc != 1 {
			t.Errorf("block %d is held %d times with no op in flight", b, rc-1)
		}
		bh.Put()
	}
}

// netNoLoss is a deterministic loss-free link so round-trip counts in
// swap tests do not depend on retransmission luck.
func netNoLoss() net.LinkParams { return net.LinkParams{Delay: 1} }

// TestCachedCrossingsAllocFree pins the compartmented hot path: on
// extlike a cached Pread or in-place Pwrite crosses the fs gate once
// and the buf gate once for its data, plus once for the indirect block
// when the range reaches past the direct blocks, and a Stat crosses
// only the fs gate. None of them allocates: an in-place Pwrite takes
// its write token and journal handle from extlike's pool, journals
// nothing, and so does not commit, leaving the empty running
// transaction for the next write to join; the buffer cache adds none.
func TestCachedCrossingsAllocFree(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 21})
	fd, err := k.VFS.Open(k.Task, "/hot", vfs.ORdWr|vfs.OCreate)
	if err != kbase.EOK {
		t.Fatalf("Open: %v", err)
	}
	defer k.VFS.Close(fd)
	// 16 blocks of 512 bytes: 10 direct, 6 behind the indirect block.
	if _, err := k.VFS.Pwrite(k.Task, fd, make([]byte, 8192), 0); err != kbase.EOK {
		t.Fatalf("Pwrite: %v", err)
	}
	small, page := make([]byte, 1024), make([]byte, 4096)
	ops := []struct {
		name   string
		op     func() kbase.Errno
		maxBuf uint64 // buf-gate crossings
		allocs float64
	}{
		// Blocks 1 and 2, both direct.
		{"direct Pread", func() kbase.Errno { _, err := k.VFS.Pread(k.Task, fd, small, 512); return err }, 1, 0},
		// Blocks 4..12: nine blocks straddling the direct/indirect edge.
		{"4 KiB Pread across blocks 9/10", func() kbase.Errno { _, err := k.VFS.Pread(k.Task, fd, page, 2348); return err }, 2, 0},
		// Blocks 9..11, again across the edge.
		{"in-place Pwrite", func() kbase.Errno { _, err := k.VFS.Pwrite(k.Task, fd, small, 4900); return err }, 2, 0},
		{"Stat", func() kbase.Errno { _, err := k.VFS.Stat(k.Task, "/hot"); return err }, 0, 0},
	}
	fs, buf := k.Plane.Get("fs"), k.Plane.Get("buf")
	for _, o := range ops {
		if err := o.op(); err != kbase.EOK { // warm
			t.Fatalf("%s: %v", o.name, err)
		}
		fsBefore, bufBefore := ktrace.Read(fs.CollectMetrics, "entered"), ktrace.Read(buf.CollectMetrics, "entered")
		if err := o.op(); err != kbase.EOK {
			t.Fatalf("%s: %v", o.name, err)
		}
		if n := ktrace.Read(fs.CollectMetrics, "entered") - fsBefore; n != 1 {
			t.Errorf("%s crossed the fs gate %d times, want 1", o.name, n)
		}
		if n := ktrace.Read(buf.CollectMetrics, "entered") - bufBefore; n > o.maxBuf || (o.maxBuf > 0 && n == 0) {
			t.Errorf("%s crossed the buf gate %d times, want 1..%d", o.name, n, o.maxBuf)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := o.op(); err != kbase.EOK {
				t.Fatalf("%s: %v", o.name, err)
			}
		}); allocs != o.allocs {
			t.Errorf("%s through the fs and buf gates: %.1f allocs/op, want %.0f", o.name, allocs, o.allocs)
		}
	}
}
