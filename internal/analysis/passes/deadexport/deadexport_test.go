package deadexport_test

import (
	"testing"

	"safelinux/internal/analysis/analysistest"
	"safelinux/internal/analysis/passes/deadexport"
)

func TestDeadexport(t *testing.T) {
	analysistest.RunProgram(t, deadexport.Analyzer, "iface", "lib", "cmd", "orphan")
}
