package safebuf

import (
	"testing"

	"safelinux/internal/linuxlike/blockdev"
	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/safety/own"
	"safelinux/internal/safety/spec"
)

func testCache(t *testing.T) (*Cache, *blockdev.Device, *own.Checker) {
	t.Helper()
	dev := blockdev.New(blockdev.Config{Blocks: 16, BlockSize: 64, Rng: kbase.NewRng(2)})
	ck := own.NewChecker(own.PolicyRecord)
	return NewCache(spec.NewAxiomaticDisk(dev), ck), dev, ck
}

func TestReadWriteRoundTrip(t *testing.T) {
	c, dev, ck := testCache(t)
	b, err := c.Get(3)
	if err != kbase.EOK {
		t.Fatalf("Get: %v", err)
	}
	if b.State() != StateClean {
		t.Fatalf("fresh buffer state = %s", b.State())
	}
	if err := b.Write(func(d []byte) { d[0] = 0x7E }); err != kbase.EOK {
		t.Fatalf("Write: %v", err)
	}
	if b.State() != StateDirty {
		t.Fatalf("state after write = %s", b.State())
	}
	var got byte
	if err := b.Read(func(d []byte) { got = d[0] }); err != kbase.EOK {
		t.Fatalf("Read: %v", err)
	}
	if got != 0x7E {
		t.Fatalf("read back %#x", got)
	}
	if err := c.Sync(); err != kbase.EOK {
		t.Fatalf("Sync: %v", err)
	}
	if b.State() != StateClean || c.DirtyCount() != 0 {
		t.Fatalf("state after sync = %s, dirty = %d", b.State(), c.DirtyCount())
	}
	// Durable on the device.
	dev.CrashApplyNone()
	raw := make([]byte, 64)
	dev.Read(3, raw)
	if raw[0] != 0x7E {
		t.Fatalf("synced data lost")
	}
	c.Drop()
	if n := ck.LiveCount(); n != 0 {
		t.Fatalf("leaked %d cells", n)
	}
	if ck.Count() != 0 {
		t.Fatalf("violations: %v", ck.Violations())
	}
}

func TestGetCachesAndCounts(t *testing.T) {
	c, _, _ := testCache(t)
	a, _ := c.Get(1)
	b, _ := c.Get(1)
	if a != b {
		t.Fatalf("distinct buffers for same block")
	}
	if st := c.shard(1).stats; st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetZero(t *testing.T) {
	c, dev, _ := testCache(t)
	raw := make([]byte, 64)
	raw[0] = 0xFF
	dev.Write(5, raw)
	dev.Flush()
	b, err := c.GetZero(5)
	if err != kbase.EOK {
		t.Fatalf("GetZero: %v", err)
	}
	var got byte = 1
	b.Read(func(d []byte) { got = d[0] })
	if got != 0 {
		t.Fatalf("GetZero content = %#x", got)
	}
	if b.State() != StateDirty {
		t.Fatalf("GetZero state = %s", b.State())
	}
	// GetZero on an already-cached block re-zeroes it.
	b.Write(func(d []byte) { d[0] = 9 })
	b2, _ := c.GetZero(5)
	if b2 != b {
		t.Fatalf("GetZero made a new buffer")
	}
	b.Read(func(d []byte) { got = d[0] })
	if got != 0 {
		t.Fatalf("re-zero failed: %#x", got)
	}
}

func TestBoundsChecked(t *testing.T) {
	c, _, _ := testCache(t)
	if _, err := c.Get(16); err != kbase.EINVAL {
		t.Fatalf("out-of-range Get: %v", err)
	}
	if _, err := c.GetZero(99); err != kbase.EINVAL {
		t.Fatalf("out-of-range GetZero: %v", err)
	}
}

func TestIOErrorMovesToErrorState(t *testing.T) {
	c, dev, _ := testCache(t)
	b, _ := c.Get(2)
	b.Write(func(d []byte) { d[0] = 1 })
	dev.FailNextWrites(1)
	if err := c.Sync(); err != kbase.EIO {
		t.Fatalf("Sync with failing device: %v", err)
	}
	if b.State() != StateError {
		t.Fatalf("state after I/O error = %s", b.State())
	}
	// Reads refuse error-state buffers.
	if err := b.Read(func([]byte) {}); err != kbase.EIO {
		t.Fatalf("read of error buffer: %v", err)
	}
	// Recovery path: rewrite and sync again.
	if err := b.Write(func(d []byte) { d[0] = 2 }); err != kbase.EOK {
		t.Fatalf("rewrite after error: %v", err)
	}
	if err := c.Sync(); err != kbase.EOK {
		t.Fatalf("second sync: %v", err)
	}
}

func TestInvalidTransitionOopses(t *testing.T) {
	rec := &kbase.OopsRecorder{}
	prev := kbase.InstallRecorder(rec)
	defer kbase.InstallRecorder(prev)
	c, _, _ := testCache(t)
	b, _ := c.Get(1) // Clean
	if err := b.transition(StateWriting); err != kbase.EINVAL {
		t.Fatalf("Clean->Writing allowed: %v", err)
	}
	if rec.Count(kbase.OopsSemantic) != 1 {
		t.Fatalf("invalid transition not reported")
	}
}

func TestStateMachineCoversLegacyValidRegion(t *testing.T) {
	// Every state has at least one exit (no dead states) and the
	// machine is connected from Empty.
	reachable := map[BufState]bool{StateEmpty: true}
	frontier := []BufState{StateEmpty}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, n := range validTransitions[s] {
			if !reachable[n] {
				reachable[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	for _, s := range []BufState{StateEmpty, StateClean, StateDirty, StateWriting, StateError} {
		if !reachable[s] {
			t.Fatalf("state %s unreachable", s)
		}
		if len(validTransitions[s]) == 0 {
			t.Fatalf("state %s is terminal", s)
		}
	}
}

func TestModuleMetadata(t *testing.T) {
	m := Module{}
	if m.ModuleName() != "safebuf" {
		t.Fatalf("name = %s", m.ModuleName())
	}
	iface := m.Implements()
	if iface.Name != IfaceName || iface.Version != 1 {
		t.Fatalf("iface = %+v", iface)
	}
	if m.Level().String() != "ownership-safe" {
		t.Fatalf("level = %s", m.Level())
	}
	dev := blockdev.New(blockdev.Config{Blocks: 4, BlockSize: 32, Rng: kbase.NewRng(1)})
	if c := m.New(spec.NewAxiomaticDisk(dev), own.NewChecker(own.PolicyRecord)); c == nil {
		t.Fatalf("factory returned nil")
	}
}

func TestAxiomShimSeesNoViolationsUnderCorrectUse(t *testing.T) {
	dev := blockdev.New(blockdev.Config{Blocks: 16, BlockSize: 64, Rng: kbase.NewRng(2)})
	ax := spec.NewAxiomaticDisk(dev)
	c := NewCache(ax, own.NewChecker(own.PolicyRecord))
	for i := uint64(0); i < 8; i++ {
		b, _ := c.Get(i)
		b.Write(func(d []byte) { d[0] = byte(i) })
	}
	c.Sync()
	for i := uint64(0); i < 8; i++ {
		b, _ := c.Get(i)
		b.Read(func(d []byte) {})
	}
	if v := ax.Violations(); len(v) != 0 {
		t.Fatalf("axiom violations under correct use: %v", v)
	}
}
