package compartment

import "safelinux/internal/linuxlike/kbase"

// Exec is Do for operations that return a value alongside the Errno.
// On containment the zero value of T is returned with EFAULT (or
// ESHUTDOWN while quarantined).
func Exec[T any](c *Compartment, task *kbase.Task, op string, fn func() (T, kbase.Errno)) (T, kbase.Errno) {
	var out T
	err := c.Do(task, op, func() kbase.Errno {
		var e kbase.Errno
		out, e = fn()
		return e
	})
	if err != kbase.EOK {
		var zero T
		return zero, err
	}
	return out, kbase.EOK
}
