package compartguard_test

import (
	"testing"

	"safelinux/internal/analysis"
	"safelinux/internal/analysis/analysistest"
	"safelinux/internal/analysis/passes/compartguard"
)

func TestBoundaryDiscipline(t *testing.T) {
	analysistest.Run(t, compartguard.Analyzer, analysistest.TestdataDir("a"), "a")
}

func TestGateShapes(t *testing.T) {
	analysistest.Run(t, compartguard.Analyzer, analysistest.TestdataDir("c"), "c")
}

func TestImportBan(t *testing.T) {
	// The synthetic import path places the package inside the legacy
	// tree, where the compartment import is forbidden.
	analysistest.Run(t, compartguard.Analyzer, analysistest.TestdataDir("b"),
		analysis.ModulePath+"/internal/linuxlike/fakepkg")
}
