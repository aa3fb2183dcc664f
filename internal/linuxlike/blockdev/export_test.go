package blockdev

// SetReadOnly marks the device read-only; writes fail with EROFS.
func (d *Device) SetReadOnly(ro bool) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	d.readOnly = ro
}
