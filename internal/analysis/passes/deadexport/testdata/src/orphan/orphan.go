package orphan // want `package orphan has no non-test importer`

// Helper is not reported on its own: the package clause carries the
// finding.
func Helper() {}
