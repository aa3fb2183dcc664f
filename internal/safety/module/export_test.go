package module

import "safelinux/internal/linuxlike/kbase"

// Unbind removes the implementation of an interface and returns it.
func (r *Registry) Unbind(ifaceName string) (Module, kbase.Errno) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[ifaceName]
	if !ok {
		return nil, kbase.ENOENT
	}
	delete(r.bindings, ifaceName)
	m := b.mod.Load().m
	r.record("unbind", ifaceName, m.ModuleName(), "")
	return m, kbase.EOK
}
