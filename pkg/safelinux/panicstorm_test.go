package safelinux

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"safelinux/internal/linuxlike/ebpflike"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/vfs"
)

// TestPanicStormConvergence is the faultinject campaign for the
// compartment plane: a seeded storm of injected panics kills every
// non-core compartment (fs, net, buf, kio, ebpf) at least once, in
// random order, while bystander workloads hammer the compartments
// OUTSIDE the victim's dependency cone. Each kill must surface only as
// a typed error inside the cone, the bystanders must record zero
// failures, the supervisor must restart the victim, and after the
// storm the kernel must converge back to AllHealthy with end-to-end
// fs and net service intact.
//
// Dependency cones (who may legitimately see the victim's fault):
//
//	fs   -> {fs}                (callers of the VFS surface)
//	buf  -> {fs, buf}           (extlike reads/writes go through buf)
//	kio  -> {fs, buf, kio}      (journal commits submit to the engine)
//	net  -> {net}
//	ebpf -> {}                  (probes fail open: nobody sees it)
//
// Bystanders per round are chosen outside the cone; the direct kio
// batch path and the network stack depend on nothing else, read-only
// stats of a dcache-hot path touch neither buf nor the engine.
func TestPanicStormConvergence(t *testing.T) {
	k := bootCompartmented(t, Config{Seed: 77, Link: netNoLoss()})

	// A committed, dcache-hot anchor for read-only bystander traffic.
	// SyncAll commits it to the journal so it survives fs restarts.
	writeThrough(t, k.VFS, k.Task, "/anchor", "anchored")
	if err := k.VFS.SyncAll(k.Task); err != kbase.EOK {
		t.Fatalf("anchor sync: %v", err)
	}
	if _, err := k.VFS.Stat(k.Task, "/anchor"); err != kbase.EOK {
		t.Fatalf("anchor stat: %v", err)
	}

	// Park a verified probe on vfs:lookup for the entire storm so the
	// ebpf compartment sits on the hot path of every fs operation —
	// that is how an ebpf kill gets tripped, and how the other rounds
	// prove a healthy probe plane rides through their faults.
	tp := ktrace.Lookup("vfs:lookup")
	if tp == nil {
		t.Fatal("vfs:lookup tracepoint not registered")
	}
	prog, perr := ebpflike.Verify([]ebpflike.Inst{
		{Op: ebpflike.OpLdCtx32, Dst: 0, Src: 0, Imm: 24},
		{Op: ebpflike.OpRet, Dst: 0},
	}, ktrace.EventCtxSize)
	if perr != nil {
		t.Fatalf("verify: %v", perr)
	}
	probe, kerr := ktrace.Attach(tp, prog)
	if kerr != kbase.EOK {
		t.Fatalf("attach: %v", kerr)
	}
	defer probe.Detach()

	// Every compartment once in random order, then three more random
	// kills on top: eight rounds total.
	rng := rand.New(rand.NewSource(99))
	storm := []string{"fs", "net", "buf", "kio", "ebpf"}
	rng.Shuffle(len(storm), func(i, j int) { storm[i], storm[j] = storm[j], storm[i] })
	all := []string{"fs", "net", "buf", "kio", "ebpf"}
	for i := 0; i < 3; i++ {
		storm = append(storm, all[rng.Intn(len(all))])
	}

	nextPort := uint16(7000)
	for round, victim := range storm {
		stormRound(t, k, round, victim, &nextPort)
	}

	// Convergence: plane healthy, exactly one recorded fault per kill,
	// and full end-to-end service on both planes.
	k.Plane.Settle()
	if !k.Plane.AllHealthy() {
		t.Fatalf("plane not healthy after storm")
	}
	if got := len(k.Plane.Faults()); got != len(storm) {
		t.Fatalf("fault log has %d entries, want %d", got, len(storm))
	}
	writeThrough(t, k.VFS, k.Task, "/after-storm", "alive")
	if got := readAll(t, k, "/after-storm"); got != "alive" {
		t.Fatalf("post-storm read = %q", got)
	}
	if err := k.StreamRoundTrip(nextPort, []byte("post-storm")); err != kbase.EOK {
		t.Fatalf("post-storm round trip: %v", err)
	}
}

// stormRound arms a one-shot panic in victim, drives the victim's own
// surface until the fault fires, keeps out-of-cone bystander traffic
// running through the quarantine and restart window, and fails the
// test if any bystander records an error or the victim does not come
// back healthy.
func stormRound(t *testing.T, k *Kernel, round int, victim string, nextPort *uint16) {
	t.Helper()
	comp := k.Plane.Get(victim)
	if comp == nil {
		t.Fatalf("round %d: no compartment %q", round, victim)
	}
	before := len(k.Plane.Faults())
	comp.InjectPanic(1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bystanderErrs []string
	report := func(format string, args ...any) {
		mu.Lock()
		bystanderErrs = append(bystanderErrs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// Bystander selection by dependency cone (see the test comment).
	// The network driver also serves as the tripper when net is the
	// victim, and the sim is single-threaded, so at most one goroutine
	// ever steps it.
	// Buffer-cache reads are synchronous (only writeback routes through
	// the engine), so read-only stats stay outside kio's cone.
	fsWrites := victim == "net" || victim == "ebpf"
	fsReads := victim == "kio"
	netDrive := victim != "net"
	kioDrive := victim != "kio"

	if fsWrites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/storm_r%d_i%d", round, i)
				fd, err := k.VFS.Open(k.Task, path, vfs.OWrOnly|vfs.OCreate)
				if err != kbase.EOK {
					report("round %d (%s): bystander open %s: %v", round, victim, path, err)
					return
				}
				if _, err := k.VFS.Write(k.Task, fd, []byte("bystander")); err != kbase.EOK {
					report("round %d (%s): bystander write %s: %v", round, victim, path, err)
				}
				if err := k.VFS.Close(fd); err != kbase.EOK {
					report("round %d (%s): bystander close %s: %v", round, victim, path, err)
				}
			}
		}()
	}
	if fsReads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := k.VFS.Stat(k.Task, "/anchor"); err != kbase.EOK {
					report("round %d (%s): bystander stat: %v", round, victim, err)
					return
				}
			}
		}()
	}
	if netDrive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				port := *nextPort
				*nextPort++
				mu.Unlock()
				if err := k.StreamRoundTrip(port, []byte("storm")); err != kbase.EOK {
					report("round %d (%s): bystander round trip: %v", round, victim, err)
					return
				}
			}
		}()
	}
	if kioDrive {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, k.cfg.BlockSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := k.IOEngine().NewBatch()
				if err := b.Read(0, buf, 0); err != kbase.EOK {
					report("round %d (%s): bystander kio read: %v", round, victim, err)
					return
				}
				for _, cqe := range b.Submit().Wait() {
					if cqe.Err != kbase.EOK {
						report("round %d (%s): bystander kio cqe: %v", round, victim, cqe.Err)
						return
					}
				}
			}
		}()
	}

	// Trip the victim from this goroutine until the fault registers.
	deadline := time.Now().Add(10 * time.Second)
	for len(k.Plane.Faults()) == before {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: %s never faulted", round, victim)
		}
		switch victim {
		case "fs":
			if _, err := k.VFS.Stat(k.Task, "/anchor"); err != kbase.EOK && err != kbase.EFAULT && err != kbase.ESHUTDOWN {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: fs trip error %v, want typed EFAULT/ESHUTDOWN", round, err)
			}
		case "buf":
			path := fmt.Sprintf("/trip_r%d", round)
			fd, err := k.VFS.Open(k.Task, path, vfs.OWrOnly|vfs.OCreate)
			if err == kbase.EOK {
				k.VFS.Write(k.Task, fd, []byte("trip"))
				k.VFS.Fsync(k.Task, fd)
				k.VFS.Close(fd)
			}
		case "kio":
			b := k.IOEngine().NewBatch()
			b.Read(1, make([]byte, k.cfg.BlockSize), 0)
			for _, cqe := range b.Submit().Wait() {
				if cqe.Err != kbase.EOK && cqe.Err != kbase.EFAULT && cqe.Err != kbase.ESHUTDOWN {
					close(stop)
					wg.Wait()
					t.Fatalf("round %d: kio trip cqe %v, want typed EFAULT/ESHUTDOWN", round, cqe.Err)
				}
			}
		case "net":
			mu.Lock()
			port := *nextPort
			*nextPort++
			mu.Unlock()
			k.StreamRoundTrip(port, []byte("trip"))
		case "ebpf":
			// Probes fail open: the fs op that trips the dead probe
			// must still succeed.
			if _, err := k.VFS.Stat(k.Task, "/anchor"); err != kbase.EOK {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: stat through dead probe = %v, want EOK (fail-open)", round, err)
			}
		}
	}

	// Keep the bystanders running through quarantine and restart, then
	// require the victim back healthy.
	if !k.Plane.WaitHealthy(victim, 10*time.Second) {
		close(stop)
		wg.Wait()
		t.Fatalf("round %d: %s did not restart", round, victim)
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, e := range bystanderErrs {
		t.Error(e)
	}
	if len(bystanderErrs) > 0 {
		t.Fatalf("round %d: %d bystander failures with %s as victim", round, len(bystanderErrs), victim)
	}
}
