package vfs

// InstrumentBoundaries installs a type-confusion detector on the
// VFS's untyped handoffs (nil uninstalls).
func (v *VFS) InstrumentBoundaries(d boundaryDetector) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.detector = d
}
