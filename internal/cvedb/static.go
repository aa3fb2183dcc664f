package cvedb

import (
	"fmt"
	"sort"
	"strings"

	"safelinux/internal/analysis"
)

// Static-analysis adapter: kerncheck findings are mapped onto the same
// CWE taxonomy as the historical CVE rows, so the Figure-2-style
// tables can show what the static passes catch TODAY next to what the
// kernel shipped as CVEs — each analyzer is a compile-time guard for
// one weakness class from the §2 categorization.

// staticCWE maps an analyzer (and, where one analyzer covers two
// weakness classes, its finding category) to the CWE it guards.
var staticCWE = map[string]int{
	"anyboundary":             843, // type confusion via any/interface{}
	"errptr":                  824, // errno-in-pointer: uninitialized/invalid pointer access
	"lockorder":               667, // improper locking discipline
	"ownescape":               362, // shared mutable state across modules: race condition
	"refbalance/leak":         401, // missing Put: memory leak
	"refbalance/over-release": 415, // double Put: double free
	// deadexport: none — exported code only tests call is a size
	// finding, not a weakness class.
}

// CWEForFinding resolves the CWE a kerncheck finding maps to. The
// category-qualified key wins over the bare analyzer name.
func CWEForFinding(f analysis.Finding) (CWE, bool) {
	id, ok := staticCWE[f.Analyzer+"/"+f.Category]
	if !ok {
		id, ok = staticCWE[f.Analyzer]
	}
	if !ok {
		return CWE{}, false
	}
	c, ok := taxonomyByID()[id]
	return c, ok
}

// StaticBucket is one row of the static-findings categorization: a
// CWE with the number of current kerncheck findings guarding it.
type StaticBucket struct {
	CWE   CWE
	Count int
}

// CategorizeStatic buckets kerncheck findings by CWE, sorted by count
// (desc) then id.
func CategorizeStatic(findings []analysis.Finding) []StaticBucket {
	counts := make(map[int]int)
	byID := taxonomyByID()
	for _, f := range findings {
		if c, ok := CWEForFinding(f); ok {
			counts[c.ID]++
		}
	}
	out := make([]StaticBucket, 0, len(counts))
	for id, n := range counts {
		out = append(out, StaticBucket{CWE: byID[id], Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].CWE.ID < out[j].CWE.ID
	})
	return out
}

// RenderStaticFindings formats the CWE bucket table for kerncheck
// -report, including the §2 prevention trichotomy per row.
func RenderStaticFindings(findings []analysis.Finding) string {
	buckets := CategorizeStatic(findings)
	var b strings.Builder
	fmt.Fprintf(&b, "static findings by CWE class (cvedb taxonomy):\n")
	if len(buckets) == 0 {
		fmt.Fprintf(&b, "  none\n")
		return b.String()
	}
	total := 0
	perPrevention := make(map[Prevention]int)
	for _, bk := range buckets {
		fmt.Fprintf(&b, "  CWE-%-4d %-40s %-15s %4d\n",
			bk.CWE.ID, bk.CWE.Name, string(bk.CWE.Prevention), bk.Count)
		total += bk.Count
		perPrevention[bk.CWE.Prevention] += bk.Count
	}
	fmt.Fprintf(&b, "  total: %d", total)
	var parts []string
	for _, p := range []Prevention{PreventTypeOwnership, PreventFunctional, PreventOther} {
		if n := perPrevention[p]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", string(p), n))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}
