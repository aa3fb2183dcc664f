package module

import (
	"strings"
	"testing"

	"safelinux/internal/linuxlike/kbase"
)

// fakeFS is a test module implementing a toy storage interface.
type fakeFS struct {
	name  string
	level SafetyLevel
	ver   int
}

func (f *fakeFS) ModuleName() string { return f.name }
func (f *fakeFS) Implements() Interface {
	return Interface{Name: "storage.fs", Version: f.ver}
}
func (f *fakeFS) Level() SafetyLevel { return f.level }

// Reader is the Go-side contract some modules additionally satisfy.
type Reader interface{ ReadAll() string }

type readableFS struct {
	fakeFS
	content string
}

func (r *readableFS) ReadAll() string { return r.content }

func declared(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if err := r.Declare(Interface{Name: "storage.fs", Version: 1, Doc: "file storage"}); err != kbase.EOK {
		t.Fatalf("Declare: %v", err)
	}
	return r
}

func TestDeclareBindLookup(t *testing.T) {
	r := declared(t)
	m := &fakeFS{name: "extlike", level: LevelLegacy, ver: 1}
	if err := r.Bind(m); err != kbase.EOK {
		t.Fatalf("Bind: %v", err)
	}
	got, err := r.Lookup("storage.fs")
	if err != kbase.EOK || got != Module(m) {
		t.Fatalf("Lookup = (%v, %v)", got, err)
	}
	if _, err := r.Lookup("no.such"); err != kbase.ENOENT {
		t.Fatalf("Lookup missing: %v", err)
	}
}

func TestBindRequiresDeclaration(t *testing.T) {
	r := NewRegistry()
	if err := r.Bind(&fakeFS{name: "m", ver: 1}); err != kbase.ENOENT {
		t.Fatalf("Bind undeclared: %v", err)
	}
}

func TestBindVersionMismatch(t *testing.T) {
	r := declared(t)
	if err := r.Bind(&fakeFS{name: "m", ver: 2}); err != kbase.EPROTO {
		t.Fatalf("Bind wrong version: %v", err)
	}
}

func TestDoubleBindRefused(t *testing.T) {
	r := declared(t)
	r.Bind(&fakeFS{name: "a", ver: 1})
	if err := r.Bind(&fakeFS{name: "b", ver: 1}); err != kbase.EBUSY {
		t.Fatalf("double bind: %v", err)
	}
}

func TestSwapUpgradesLevel(t *testing.T) {
	r := declared(t)
	legacy := &fakeFS{name: "extlike", level: LevelLegacy, ver: 1}
	r.Bind(legacy)
	safe := &fakeFS{name: "safefs", level: LevelOwnershipSafe, ver: 1}
	old, err := r.Swap(safe)
	if err != kbase.EOK {
		t.Fatalf("Swap: %v", err)
	}
	if old != Module(legacy) {
		t.Fatalf("Swap displaced %v", old)
	}
	got, _ := r.Lookup("storage.fs")
	if got.ModuleName() != "safefs" {
		t.Fatalf("active module = %s", got.ModuleName())
	}
}

func TestSwapRefusesRegression(t *testing.T) {
	r := declared(t)
	r.Bind(&fakeFS{name: "safefs", level: LevelVerified, ver: 1})
	worse := &fakeFS{name: "sketchy", level: LevelLegacy, ver: 1}
	if _, err := r.Swap(worse); err != kbase.EPERM {
		t.Fatalf("regressing swap: %v", err)
	}
	if got, _ := r.Lookup("storage.fs"); got.ModuleName() != "safefs" {
		t.Fatalf("active module after a refused swap = %s", got.ModuleName())
	}
}

func TestSwapVersionMismatch(t *testing.T) {
	r := declared(t)
	r.Bind(&fakeFS{name: "a", ver: 1})
	if _, err := r.Swap(&fakeFS{name: "b", ver: 2}); err != kbase.EPROTO {
		t.Fatalf("swap wrong version: %v", err)
	}
}

func TestUnbind(t *testing.T) {
	r := declared(t)
	m := &fakeFS{name: "a", ver: 1}
	r.Bind(m)
	got, err := r.Unbind("storage.fs")
	if err != kbase.EOK || got != Module(m) {
		t.Fatalf("Unbind = (%v, %v)", got, err)
	}
	if _, err := r.Lookup("storage.fs"); err != kbase.ENOENT {
		t.Fatalf("Lookup after unbind: %v", err)
	}
	if _, err := r.Unbind("storage.fs"); err != kbase.ENOENT {
		t.Fatalf("double unbind: %v", err)
	}
}

func TestTypedGet(t *testing.T) {
	r := declared(t)
	rf := &readableFS{fakeFS: fakeFS{name: "r", ver: 1}, content: "hello"}
	r.Bind(rf)
	reader, err := Get[Reader](r, "storage.fs")
	if err != kbase.EOK {
		t.Fatalf("Get: %v", err)
	}
	if reader.ReadAll() != "hello" {
		t.Fatalf("ReadAll = %q", reader.ReadAll())
	}
	// Wrong contract type: EPROTO at the boundary.
	type Widener interface{ Widen() int }
	if _, err := Get[Widener](r, "storage.fs"); err != kbase.EPROTO {
		t.Fatalf("Get wrong type: %v", err)
	}
	if _, err := Get[Reader](r, "absent"); err != kbase.ENOENT {
		t.Fatalf("Get absent: %v", err)
	}
}

func TestInventoryAndAccessCounting(t *testing.T) {
	r := declared(t)
	r.Declare(Interface{Name: "net.tcp", Version: 1})
	r.Bind(&fakeFS{name: "extlike", level: LevelLegacy, ver: 1})
	for i := 0; i < 5; i++ {
		r.Lookup("storage.fs")
	}
	inv := r.Inventory()
	if len(inv) != 1 {
		t.Fatalf("Inventory = %+v", inv)
	}
	if inv[0].Accesses != 5 || inv[0].Module != "extlike" {
		t.Fatalf("binding = %+v", inv[0])
	}
}

func TestAuditTrail(t *testing.T) {
	r := declared(t)
	r.Bind(&fakeFS{name: "a", level: LevelModular, ver: 1})
	r.Swap(&fakeFS{name: "b", level: LevelTypeSafe, ver: 1})
	trail := r.Trail()
	if len(trail) != 3 {
		t.Fatalf("trail length = %d", len(trail))
	}
	kinds := []string{trail[0].Kind, trail[1].Kind, trail[2].Kind}
	if strings.Join(kinds, ",") != "declare,bind,swap" {
		t.Fatalf("trail kinds = %v", kinds)
	}
	if !strings.Contains(trail[2].Detail, "a->b") {
		t.Fatalf("swap detail = %q", trail[2].Detail)
	}
}

func TestMinLevelEmpty(t *testing.T) {
	r := NewRegistry()
	if r.MinLevel() != LevelLegacy {
		t.Fatalf("empty registry MinLevel = %v", r.MinLevel())
	}
}

// ifaceFS lets tests bind under arbitrary interface names.
type ifaceFS struct {
	name  string
	iface string
	level SafetyLevel
}

func (f *ifaceFS) ModuleName() string    { return f.name }
func (f *ifaceFS) Implements() Interface { return Interface{Name: f.iface, Version: 1} }
func (f *ifaceFS) Level() SafetyLevel    { return f.level }

func TestMinLevelAcrossBindings(t *testing.T) {
	r := NewRegistry()
	r.Declare(Interface{Name: "a", Version: 1})
	r.Declare(Interface{Name: "b", Version: 1})
	r.Bind(&ifaceFS{name: "m1", iface: "a", level: LevelVerified})
	r.Bind(&ifaceFS{name: "m2", iface: "b", level: LevelTypeSafe})
	if r.MinLevel() != LevelTypeSafe {
		t.Fatalf("MinLevel = %v", r.MinLevel())
	}
}

func TestPreventedBugClasses(t *testing.T) {
	if n := len(LevelLegacy.PreventedBugClasses()); n != 0 {
		t.Fatalf("legacy prevents %d classes", n)
	}
	ts := LevelTypeSafe.PreventedBugClasses()
	if len(ts) != 1 || ts[0] != kbase.OopsTypeConfusion {
		t.Fatalf("type-safe prevents %v", ts)
	}
	os := LevelOwnershipSafe.PreventedBugClasses()
	if len(os) != 7 {
		t.Fatalf("ownership-safe prevents %d classes", len(os))
	}
	vf := LevelVerified.PreventedBugClasses()
	if len(vf) != 9 {
		t.Fatalf("verified prevents %d classes", len(vf))
	}
}

func TestDeclareRules(t *testing.T) {
	r := NewRegistry()
	if err := r.Declare(Interface{Name: ""}); err != kbase.EINVAL {
		t.Fatalf("empty name: %v", err)
	}
	r.Declare(Interface{Name: "x", Version: 1})
	// Version change while unbound: fine.
	if err := r.Declare(Interface{Name: "x", Version: 2}); err != kbase.EOK {
		t.Fatalf("redeclare unbound: %v", err)
	}
	// Version change while bound: refused.
	r2 := NewRegistry()
	r2.Declare(Interface{Name: "x", Version: 1})
	r2.Bind(&ifaceFS{name: "m", iface: "x"})
	if err := r2.Declare(Interface{Name: "x", Version: 9}); err != kbase.EBUSY {
		t.Fatalf("redeclare while bound: %v", err)
	}
}

func TestLevelString(t *testing.T) {
	if LevelOwnershipSafe.String() != "ownership-safe" {
		t.Fatalf("String = %q", LevelOwnershipSafe.String())
	}
	if SafetyLevel(99).String() != "level(99)" {
		t.Fatalf("unknown level = %q", SafetyLevel(99).String())
	}
}
