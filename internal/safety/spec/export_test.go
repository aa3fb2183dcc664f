package spec

// InvalidateModel drops tracked expectations (call after a simulated
// crash, when acknowledged-but-unflushed writes may legitimately
// vanish).
func (d *AxiomaticDisk) InvalidateModel() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.model = make(map[uint64][]byte)
}
