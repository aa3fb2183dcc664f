// Package kbase provides the core substrate of the simulated
// Linux-like kernel: error codes and the error-pointer idiom, lock
// primitives with lock-order tracking, object lifetimes, and
// oops/panic capture.
//
// The package intentionally reproduces the C design patterns the paper
// critiques (ERR_PTR casts, ad-hoc locking contracts) so that the
// safety framework in internal/safety has the same shape of problem to
// fix that the authors face in Linux.
package kbase

import "fmt"

// Errno is a kernel error code. The simulated kernel follows the Linux
// convention of small negative integers; Errno stores the positive
// magnitude and renders with the conventional E-name.
type Errno int

// Kernel error codes used throughout the simulated kernel. Values
// match Linux's asm-generic/errno-base.h where they exist there.
const (
	EOK          Errno = 0   // no error
	EPERM        Errno = 1   // operation not permitted
	ENOENT       Errno = 2   // no such file or directory
	EINTR        Errno = 4   // interrupted
	EIO          Errno = 5   // I/O error
	EBADF        Errno = 9   // bad file descriptor
	EAGAIN       Errno = 11  // try again
	ENOMEM       Errno = 12  // out of memory
	EACCES       Errno = 13  // permission denied
	EFAULT       Errno = 14  // bad address
	EBUSY        Errno = 16  // device or resource busy
	EEXIST       Errno = 17  // file exists
	EXDEV        Errno = 18  // cross-device link
	ENODEV       Errno = 19  // no such device
	ENOTDIR      Errno = 20  // not a directory
	EISDIR       Errno = 21  // is a directory
	EINVAL       Errno = 22  // invalid argument
	ENFILE       Errno = 23  // file table overflow
	EMFILE       Errno = 24  // too many open files
	EFBIG        Errno = 27  // file too large
	ENOSPC       Errno = 28  // no space left on device
	EROFS        Errno = 30  // read-only file system
	EPIPE        Errno = 32  // broken pipe
	ENAMETOOLONG Errno = 36  // file name too long
	ENOSYS       Errno = 38  // function not implemented
	ENOTEMPTY    Errno = 39  // directory not empty
	ELOOP        Errno = 40  // too many symbolic links
	EPROTO       Errno = 71  // protocol error
	EOVERFLOW    Errno = 75  // value too large
	EMSGSIZE     Errno = 90  // message too long
	EADDRINUSE   Errno = 98  // address already in use (port space exhausted)
	ENETUNREACH  Errno = 101 // network is unreachable (partitioned link)
	ECONNRESET   Errno = 104 // connection reset by peer
	ENOBUFS      Errno = 105 // no buffer space available
	EISCONN      Errno = 106 // already connected
	ENOTCONN     Errno = 107 // not connected
	ESHUTDOWN    Errno = 108 // endpoint shut down (quarantined compartment)
	ETIMEDOUT    Errno = 110 // connection timed out
	ECONNREFUSED Errno = 111 // connection refused
	EALREADY     Errno = 114 // operation already in progress
	EINPROGRESS  Errno = 115 // operation in progress
	ESTALE       Errno = 116 // stale file handle
	EUCLEAN      Errno = 117 // structure needs cleaning (fs corruption)
)

var errnoNames = map[Errno]string{
	EOK: "EOK", EPERM: "EPERM", ENOENT: "ENOENT", EINTR: "EINTR",
	EIO: "EIO", EBADF: "EBADF", EAGAIN: "EAGAIN", ENOMEM: "ENOMEM",
	EACCES: "EACCES", EFAULT: "EFAULT", EBUSY: "EBUSY", EEXIST: "EEXIST",
	EXDEV: "EXDEV", ENODEV: "ENODEV", ENOTDIR: "ENOTDIR", EISDIR: "EISDIR",
	EINVAL: "EINVAL", ENFILE: "ENFILE", EMFILE: "EMFILE", EFBIG: "EFBIG",
	ENOSPC: "ENOSPC", EROFS: "EROFS", EPIPE: "EPIPE",
	ENAMETOOLONG: "ENAMETOOLONG", ENOSYS: "ENOSYS", ENOTEMPTY: "ENOTEMPTY",
	ELOOP: "ELOOP", EPROTO: "EPROTO", EOVERFLOW: "EOVERFLOW",
	EMSGSIZE: "EMSGSIZE", EADDRINUSE: "EADDRINUSE", ENETUNREACH: "ENETUNREACH",
	ECONNRESET: "ECONNRESET", ENOBUFS: "ENOBUFS", ESHUTDOWN: "ESHUTDOWN",
	EISCONN: "EISCONN", ENOTCONN: "ENOTCONN", ETIMEDOUT: "ETIMEDOUT",
	ECONNREFUSED: "ECONNREFUSED", EALREADY: "EALREADY",
	EINPROGRESS: "EINPROGRESS", ESTALE: "ESTALE", EUCLEAN: "EUCLEAN",
}

// Error implements the error interface so an Errno can flow through Go
// error returns at the boundary between the simulated kernel and test
// harnesses.
func (e Errno) Error() string {
	if name, ok := errnoNames[e]; ok {
		return name
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// String returns the conventional E-name.
func (e Errno) String() string { return e.Error() }

// IsError reports whether e denotes a failure (non-zero).
func (e Errno) IsError() bool { return e != EOK }
