package analysis

import "testing"

func TestSubsystem(t *testing.T) {
	cases := map[string]string{
		ModulePath + "/internal/linuxlike/vfs":        "vfs",
		ModulePath + "/internal/linuxlike/fs/extlike": "extlike",
		ModulePath + "/internal/safemod/safefs":       "safefs",
		ModulePath + "/pkg/safelinux":                 "safelinux",
		ModulePath + "/cmd/kerncheck":                 "kerncheck",
	}
	for in, want := range cases {
		if got := Subsystem(in); got != want {
			t.Errorf("Subsystem(%q) = %q, want %q", in, got, want)
		}
	}
}
