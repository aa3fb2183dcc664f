// Package safelinux is the public API of the simulated kernel and
// the paper's incremental migration machinery. A Kernel boots in the
// legacy configuration — an ext-style journaling file system behind
// the VFS, the legacy TCP stack wired through the generic socket
// layer — and is then upgraded module by module: UpgradeFS swaps the
// root file system for the verified safefs (copying the live tree
// across), UpgradeTCP installs the ownership-safe transport behind
// the retrofitted modular interface. The module registry tracks every
// step, and the audit package renders where the kernel stands on the
// paper's Figure-1 landscape after each one.
package safelinux

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/fs/extlike"
	"safelinux/internal/linuxlike/fs/overlaylike"
	"safelinux/internal/linuxlike/fs/ramfs"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/kio"
	"safelinux/internal/linuxlike/ktrace"
	"safelinux/internal/linuxlike/net"
	"safelinux/internal/linuxlike/vfs"
	"safelinux/internal/safemod/safefs"
	"safelinux/internal/safemod/safetcp"
	"safelinux/internal/safety/audit"
	"safelinux/internal/safety/compartment"
	"safelinux/internal/safety/gate"
	"safelinux/internal/safety/module"
	"safelinux/internal/safety/own"
)

// Config sizes a kernel.
type Config struct {
	Seed       uint64
	DiskBlocks uint64 // root device capacity (default 4096)
	BlockSize  int    // root device block size (default 512)
	// CaptureOops installs an oops recorder so failures are captured
	// instead of panicking. The zero value installs none, so a caller
	// that wants failures captured must set it.
	CaptureOops bool
	// Deprecated: ignored; the kio engine is always on.
	AsyncIO bool
	// Link is the fault model for the link between the kernel's two
	// hosts. The zero value selects the historical default of a
	// 1-jiffy, 1%-loss link.
	Link net.LinkParams
	// Compartments boots the kernel with crash-containment boundaries
	// around every swappable subsystem (fs, net, buffer cache, kio,
	// ebpf probes) and a supervisor plane that quarantines and restarts
	// faulted compartments; UpgradeFS and UpgradeTCP then swap under
	// a drain. See compartments.go.
	Compartments bool
}

func (c *Config) fill() {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 4096
	}
	if c.BlockSize == 0 {
		c.BlockSize = 512
	}
	if c.Link == (net.LinkParams{}) {
		c.Link = net.LinkParams{Delay: 1, LossProb: 0.01}
	}
}

// Kernel is one assembled simulated kernel.
type Kernel struct {
	VFS      *vfs.VFS
	Sim      *net.Sim
	Registry *module.Registry
	Checker  *own.Checker
	Recorder *kbase.OopsRecorder
	Task     *kbase.Task
	// Plane is the containment supervisor (nil unless
	// Config.Compartments was set).
	Plane *compartment.Plane

	cfg     Config
	rootDev *blockdev.Device
	// fsDev is the device behind "/": rootDev, then the safefs device
	// once UpgradeFS has moved the root onto it. Atomic so
	// a metrics read races no swap.
	fsDev    atomic.Pointer[blockdev.Device]
	ioEngine *kio.Engine
	hostA    *net.Host
	hostB    *net.Host
	safeEPA  *safetcp.Endpoint
	safeEPB  *safetcp.Endpoint
	// fsSafe and tcpSafe record a completed UpgradeFS and UpgradeTCP.
	// Each is set by its migration inside the compartment's drain, and
	// read anywhere.
	fsSafe  atomic.Bool
	tcpSafe atomic.Bool
	// upgradeMu serializes the upgrades: a second caller waits for the
	// first rather than meeting its drain with EBUSY, then finds the
	// module replaced.
	upgradeMu sync.Mutex
}

// Interface names the kernel declares in its registry.
const (
	IfaceFS     = safefs.IfaceName
	IfaceStream = safetcp.IfaceName
)

// legacyFSModule is the registry descriptor for the boot-time file
// system: behind the VFS it is already modular (Step 1, which the
// paper credits VFS with), but nothing more.
type legacyFSModule struct{}

func (legacyFSModule) ModuleName() string { return "extlike" }
func (legacyFSModule) Implements() module.Interface {
	return module.Interface{Name: IfaceFS, Version: 1,
		Doc: "file system behind the VFS modular interface", Methods: []string{"Mount"}}
}
func (legacyFSModule) Level() module.SafetyLevel { return module.LevelModular }

// New boots a legacy-configuration kernel.
func New(cfg Config) (*Kernel, kbase.Errno) {
	cfg.fill()
	k := &Kernel{
		cfg:      cfg,
		Registry: module.NewRegistry(),
		Checker:  own.NewChecker(own.PolicyRecord),
		Task:     kbase.NewTask(),
		Sim:      net.NewSim(cfg.Seed + 100),
	}
	if cfg.CaptureOops {
		k.Recorder = &kbase.OopsRecorder{}
		kbase.InstallRecorder(k.Recorder)
	}

	// Storage: extlike on a fresh device, mounted at /.
	k.rootDev = blockdev.New(blockdev.Config{
		Blocks: cfg.DiskBlocks, BlockSize: cfg.BlockSize,
		Rng: kbase.NewRng(cfg.Seed + 1),
	})
	if _, err := extlike.Mkfs(k.rootDev, extlike.MkfsOptions{}); err != kbase.EOK {
		return nil, err
	}
	k.fsDev.Store(k.rootDev)
	k.VFS = vfs.New(nil)
	for _, fs := range []vfs.FileSystemType{
		&ramfs.FS{}, &extlike.FS{}, &overlaylike.FS{}, &safefs.FS{SyncOnCommit: true},
	} {
		if err := k.VFS.RegisterFS(fs); err != kbase.EOK {
			return nil, err
		}
	}
	if err := k.VFS.Mount(k.Task, "/", "extlike", vfs.NewMountData(&extlike.MountData{Dev: k.rootDev})); err != kbase.EOK {
		return nil, err
	}

	// Block I/O: one kio engine over the root device, behind the root
	// file system's buffer cache, through which both the journal's
	// commits and the cache's writeback submit. The mount recovered the
	// journal with direct device calls above, so the engine only ever
	// sees steady-state traffic.
	k.ioEngine = kio.New(k.rootDev)
	k.wireRootFS(k.Task)

	// Network: two linked hosts on the legacy stack.
	k.hostA = k.Sim.AddHost(1)
	k.hostB = k.Sim.AddHost(2)
	k.Sim.Link(1, 2, cfg.Link)

	// Registry: declare the interfaces, bind the boot modules.
	for _, iface := range []module.Interface{
		{Name: IfaceFS, Version: 1, Doc: "file system", Methods: []string{"Mount"}},
		{Name: IfaceStream, Version: 1, Doc: "stream transport", Methods: []string{"Listen", "Connect"}},
	} {
		if err := k.Registry.Declare(iface); err != kbase.EOK {
			return nil, err
		}
	}
	if err := k.Registry.Bind(legacyFSModule{}); err != kbase.EOK {
		return nil, err
	}
	if err := k.Registry.Bind(safetcp.LegacyModule{}); err != kbase.EOK {
		return nil, err
	}

	// Containment: wrap every swappable subsystem in a compartment
	// boundary and start the supervisor plane (compartments.go).
	if cfg.Compartments {
		k.enableCompartments()
	}
	return k, kbase.EOK
}

// Close shuts down the I/O engine (waiting for batches in progress)
// and uninstalls the kernel's oops recorder.
func (k *Kernel) Close() {
	if k.Plane != nil {
		k.Plane.Settle()
		ktrace.SetProbeGuard(nil)
	}
	k.ioEngine.Close()
	if k.Recorder != nil {
		kbase.InstallRecorder(nil)
	}
}

// IOEngine returns the kernel's kio engine over the root device (never
// nil).
func (k *Kernel) IOEngine() *kio.Engine { return k.ioEngine }

// TCPSafe reports whether the transport has been upgraded.
func (k *Kernel) TCPSafe() bool { return k.tcpSafe.Load() }

// Hosts returns the kernel's two network hosts.
func (k *Kernel) Hosts() (*net.Host, *net.Host) { return k.hostA, k.hostB }

// SafeEndpoints returns the safe transport endpoints (nil before
// UpgradeTCP).
func (k *Kernel) SafeEndpoints() (*safetcp.Endpoint, *safetcp.Endpoint) {
	return k.safeEPA, k.safeEPB
}

// PartitionNet cuts the link between the kernel's two hosts — both
// directions, or only host A → host B when oneWay is set. In-flight
// packets still deliver; new sends fail with ENETUNREACH. Established
// connections retransmit until HealNet, or die with a typed
// ETIMEDOUT reset when the retry budget runs out.
func (k *Kernel) PartitionNet(oneWay bool) {
	if oneWay {
		k.Sim.PartitionOneWay(k.hostA.Addr(), k.hostB.Addr())
		return
	}
	k.Sim.Partition(k.hostA.Addr(), k.hostB.Addr())
}

// HealNet restores the link after PartitionNet.
func (k *Kernel) HealNet() {
	k.Sim.Heal(k.hostA.Addr(), k.hostB.Addr())
}

// fixedFS adapts a pre-built superblock so an already-populated file
// system instance can be mounted into a VFS.
type fixedFS struct {
	name string
	sb   *vfs.SuperBlock
}

func (f *fixedFS) Name() string { return f.name }
func (f *fixedFS) Mount(task *kbase.Task, data vfs.MountData) (*vfs.SuperBlock, kbase.Errno) {
	return f.sb, kbase.EOK
}

// UpgradeFS performs the paper's module replacement on the root file
// system: build a safefs volume on a new device, copy the live tree
// into it, swap the mount, and record the swap in the registry. The
// old device is left intact (rollback insurance). On a compartmented
// kernel the swap runs live under the fs compartment's drain (see
// upgrade).
func (k *Kernel) UpgradeFS() kbase.Errno {
	return k.upgrade("fs", safefs.Module{}, &k.fsSafe, k.migrateFS)
}

// UpgradeTCP installs the ownership-safe transport on both hosts via
// the modular StreamProto interface and records the swap. On a
// compartmented kernel the swap runs live under the net compartment's
// drain (see upgrade).
func (k *Kernel) UpgradeTCP() kbase.Errno {
	return k.upgrade("net", safetcp.Module{}, &k.tcpSafe, k.migrateTCP)
}

// upgrade replaces the module behind compartment comp with m: run
// migrate, then record the swap in the registry. Without a plane the
// migration runs on the kernel's task. With one, the compartment is
// drained first (new callers queue at the gate, in-flight operations
// retire), the migration runs on a supervisor task so its own calls
// bypass the drained gate, a panic in it comes back as EFAULT, and the
// queued callers are released onto the new binding: no operation is
// dropped or failed by the swap, callers see it only as latency. EBUSY
// means the drain did not complete within compartment.DrainTimeout.
// done is the flag migrate sets; when it is already set, upgrade
// returns EALREADY. The check runs inside the drain, which orders it
// after any migration that set the flag.
func (k *Kernel) upgrade(comp string, m module.Module, done *atomic.Bool, migrate func(*kbase.Task) kbase.Errno) kbase.Errno {
	k.upgradeMu.Lock()
	defer k.upgradeMu.Unlock()
	if k.Plane == nil {
		if done.Load() {
			return kbase.EALREADY
		}
		if err := migrate(k.Task); err != kbase.EOK {
			return err
		}
		_, err := k.Registry.Swap(m)
		return err
	}
	c := k.Plane.Get(comp)
	start := time.Now()
	if err := c.BeginDrain(gate.Draining); err != kbase.EOK {
		return err
	}
	if done.Load() {
		c.EndDrain("", 0)
		return kbase.EALREADY
	}
	err := func() (err kbase.Errno) {
		defer func() {
			if r := recover(); r != nil {
				err = kbase.EFAULT
			}
		}()
		return migrate(kbase.NewSupervisorTask())
	}()
	if err == kbase.EOK {
		_, err = k.Registry.Swap(m)
	}
	if err != kbase.EOK {
		// Failed migration: release the queued callers onto whatever
		// binding survived rather than leaving them blocked.
		c.EndDrain("", 0)
		return err
	}
	c.EndDrain("swap", time.Since(start))
	return kbase.EOK
}

// migrateFS is the extlike→safefs migration body. Under a drain it
// runs on a supervisor task: every VFS call below must carry task so
// it bypasses the drained fs gate instead of deadlocking against it.
func (k *Kernel) migrateFS(task *kbase.Task) kbase.Errno {
	newDev := blockdev.New(blockdev.Config{
		Blocks: k.cfg.DiskBlocks, BlockSize: k.cfg.BlockSize,
		Rng: kbase.NewRng(k.cfg.Seed + 2),
	})
	if err := safefs.Format(newDev); err != kbase.EOK {
		return err
	}
	fsType := &safefs.FS{SyncOnCommit: true}
	newSB, err := fsType.Mount(task, vfs.NewMountData(&safefs.MountData{Disk: newDev, Checker: k.Checker}))
	if err != kbase.EOK {
		return err
	}
	// Copy the live tree through a staging VFS.
	staging := vfs.New(nil)
	if err := staging.RegisterFS(&fixedFS{name: "staging", sb: newSB}); err != kbase.EOK {
		return err
	}
	if err := staging.Mount(task, "/", "staging", vfs.MountData{}); err != kbase.EOK {
		return err
	}
	if err := k.copyTree(task, k.VFS, staging, "/"); err != kbase.EOK {
		return err
	}
	// Descriptors held open across a live swap migrate with it: each is
	// re-pointed at its path's copy on the new file system, position
	// intact, so the unmount below finds no open files and callers
	// released from the drain continue on the fds they already hold.
	oldRoot, err := k.VFS.Resolve(task, "/")
	if err != kbase.EOK {
		return err
	}
	if _, err := k.VFS.RemapDescriptors(oldRoot.Sb, func(p string) (*vfs.Inode, kbase.Errno) {
		return staging.Resolve(task, p)
	}); err != kbase.EOK {
		return err
	}
	// Swap the root mount.
	if err := k.VFS.Unmount(task, "/"); err != kbase.EOK {
		return err
	}
	if err := k.VFS.RegisterFS(&fixedFS{name: "safefs-root", sb: newSB}); err != kbase.EOK {
		return err
	}
	if err := k.VFS.Mount(task, "/", "safefs-root", vfs.MountData{}); err != kbase.EOK {
		return err
	}
	k.fsDev.Store(newDev)
	k.fsSafe.Store(true)
	return kbase.EOK
}

// copyTree recursively copies path (a directory) from src to dst.
func (k *Kernel) copyTree(task *kbase.Task, src, dst *vfs.VFS, path string) kbase.Errno {
	ents, err := src.ReadDir(task, path)
	if err != kbase.EOK {
		return err
	}
	for _, e := range ents {
		child := path + "/" + e.Name
		if path == "/" {
			child = "/" + e.Name
		}
		if e.Mode.IsDir() {
			if err := dst.Mkdir(task, child); err != kbase.EOK && err != kbase.EEXIST {
				return err
			}
			if err := k.copyTree(task, src, dst, child); err != kbase.EOK {
				return err
			}
			continue
		}
		st, err := src.Stat(task, child)
		if err != kbase.EOK {
			return err
		}
		data := make([]byte, st.Size)
		fd, err := src.Open(task, child, vfs.ORdOnly)
		if err != kbase.EOK {
			return err
		}
		if _, err := src.Pread(task, fd, data, 0); err != kbase.EOK {
			_ = src.CloseAs(task, fd) // cleanup on a read-only fd; the Pread error wins
			return err
		}
		_ = src.CloseAs(task, fd) // read-only fd: nothing buffered to lose
		ofd, err := dst.Open(task, child, vfs.OWrOnly|vfs.OCreate|vfs.OTrunc)
		if err != kbase.EOK {
			return err
		}
		if len(data) > 0 {
			if _, err := dst.Write(task, ofd, data); err != kbase.EOK {
				_ = dst.CloseAs(task, ofd) // cleanup; the Write error wins
				return err
			}
		}
		// The destination was written: a failed close here is a lost
		// write the migration must not paper over.
		if err := dst.CloseAs(task, ofd); err != kbase.EOK {
			return err
		}
	}
	return kbase.EOK
}

// migrateTCP is the legacy→safetcp migration body.
func (k *Kernel) migrateTCP(task *kbase.Task) kbase.Errno {
	k.safeEPA = safetcp.Attach(k.hostA, k.Checker)
	k.safeEPB = safetcp.Attach(k.hostB, k.Checker)
	k.tcpSafe.Store(true)
	return kbase.EOK
}

// RegisterMetrics wires every live subsystem into a ktrace metrics
// registry: the block device behind "/" (whichever it is at read
// time, so a registration made before UpgradeFS follows
// the root onto the safefs device), the VFS/dcache, the ownership
// checker, the root file system's journal and buffer cache (legacy
// configuration), both network hosts, the safe transport endpoints
// (after UpgradeTCP), and the ktrace built-ins (tracepoint hit counts,
// lockstat). Call again after an upgrade to pick up newly installed
// modules.
func (k *Kernel) RegisterMetrics(m *ktrace.Metrics) {
	m.Register("blockdev", func(emit func(string, uint64)) {
		k.fsDev.Load().CollectMetrics(emit)
	})
	m.Register("vfs", k.VFS.CollectMetrics)
	m.Register("own", k.Checker.CollectMetrics)
	m.Register("net", k.hostA.CollectMetrics)
	m.Register("net", k.hostB.CollectMetrics)
	if root, err := k.VFS.Resolve(k.Task, "/"); err == kbase.EOK {
		if inst, ok := extlike.InstanceOf(root.Sb); ok {
			m.Register("journal", inst.Journal().CollectMetrics)
			m.Register("bufcache", inst.Cache().CollectMetrics)
		}
	}
	if k.safeEPA != nil {
		m.Register("safetcp", k.safeEPA.CollectMetrics)
		m.Register("safetcp", k.safeEPB.CollectMetrics)
	}
	m.Register("kio", k.ioEngine.CollectMetrics)
	// Latency plane v2: SQE submit→complete latency is read through a
	// live source (the engine is replaced on a kio hot-swap; a direct
	// histogram registration would pin the old epoch's distribution),
	// while the safetcp and compartment distributions are package-level
	// and register once — re-registration on a post-upgrade call is the
	// expected duplicate and is ignored.
	m.RegisterHistSource("kio", func(emit func(string, ktrace.HistView)) {
		emit("sqe_ns", k.ioEngine.SQEHist().View())
	})
	_ = safetcp.RegisterLatency(m)
	_ = compartment.RegisterLatency(m)
	_ = net.RegisterNetMetrics(m)
	if k.Plane != nil {
		k.Plane.RegisterMetrics(m)
	}
	ktrace.RegisterBuiltin(m)
}

// ReportCard renders the per-module safety standing.
func (k *Kernel) ReportCard() string {
	return audit.ReportCard(k.Registry)
}

// Figure1 renders the landscape with this kernel's current position.
func (k *Kernel) Figure1(kernelLoC []audit.ModuleLoC) string {
	row := audit.KernelFigure1Row("safelinux-sim", k.Registry, kernelLoC)
	return audit.RenderFigure1(audit.Figure1Systems(), &row)
}

// Describe summarizes the kernel state in one line.
func (k *Kernel) Describe() string {
	fs, tcp := "extlike(modular)", "legacy-tcp"
	if k.fsSafe.Load() {
		fs = "safefs(verified)"
	}
	if k.tcpSafe.Load() {
		tcp = "safetcp(ownership-safe)"
	}
	return fmt.Sprintf("kernel[fs=%s stream=%s min-level=%s]", fs, tcp, k.Registry.MinLevel())
}
