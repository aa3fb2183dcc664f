// Package workload provides deterministic workload generators for
// the experiments: file-system operation mixes driven through the
// VFS, and network stream workloads driven over either the legacy
// socket layer or a modular stream transport.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// FSMix weights the operation types of a file-system workload.
type FSMix struct {
	Create   int
	Write    int
	Read     int
	Mkdir    int
	Unlink   int
	Rmdir    int
	Rename   int
	Fsync    int
	Truncate int
}

// total returns the mix weight sum.
func (m FSMix) total() int {
	return m.Create + m.Write + m.Read + m.Mkdir + m.Unlink + m.Rmdir +
		m.Rename + m.Fsync + m.Truncate
}

// DataHeavyMix approximates a streaming/database workload: mostly
// reads and writes, few namespace operations.
func DataHeavyMix() FSMix {
	return FSMix{Create: 4, Write: 40, Read: 40, Mkdir: 1, Unlink: 3,
		Rmdir: 1, Rename: 2, Fsync: 6, Truncate: 3}
}

// MetadataHeavyMix approximates a build/untar workload: namespace
// churn dominates.
func MetadataHeavyMix() FSMix {
	return FSMix{Create: 25, Write: 15, Read: 10, Mkdir: 12, Unlink: 15,
		Rmdir: 8, Rename: 10, Fsync: 2, Truncate: 3}
}

// FSConfig configures a file-system workload run.
type FSConfig struct {
	Seed uint64
	Ops  int
	Mix  FSMix
	// MaxWriteSize bounds one write (default 2048 bytes).
	MaxWriteSize int
	// Root is the directory the workload lives under (default "/").
	Root string
}

// FSStats reports one run.
type FSStats struct {
	Ops          int
	Errors       int
	ByKind       map[string]int
	ErrnoCounts  map[string]int
	BytesWritten int64
	BytesRead    int64
}

// String renders the stats compactly.
func (s FSStats) String() string {
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, s.ByKind[k])
	}
	return fmt.Sprintf("ops=%d errors=%d written=%d read=%d [%s]",
		s.Ops, s.Errors, s.BytesWritten, s.BytesRead, strings.Join(parts, " "))
}

// FSWorkload drives a deterministic operation mix against a mounted
// VFS. The workload tracks the files and directories it has created
// so most operations hit live paths; errors (ENOSPC, races with its
// own deletions) are counted, not fatal.
type FSWorkload struct {
	cfg   FSConfig
	rng   *kbase.Rng
	files []string
	dirs  []string
}

// NewFS creates a workload.
func NewFS(cfg FSConfig) *FSWorkload {
	if cfg.MaxWriteSize == 0 {
		cfg.MaxWriteSize = 2048
	}
	if cfg.Root == "" {
		cfg.Root = "/"
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DataHeavyMix()
	}
	return &FSWorkload{
		cfg:  cfg,
		rng:  kbase.NewRng(cfg.Seed),
		dirs: []string{strings.TrimSuffix(cfg.Root, "/")},
	}
}

// pick returns a weighted op name.
func (w *FSWorkload) pick() string {
	m := w.cfg.Mix
	weights := []struct {
		name string
		n    int
	}{
		{"create", m.Create}, {"write", m.Write}, {"read", m.Read},
		{"mkdir", m.Mkdir}, {"unlink", m.Unlink}, {"rmdir", m.Rmdir},
		{"rename", m.Rename}, {"fsync", m.Fsync}, {"truncate", m.Truncate},
	}
	d := w.rng.Intn(m.total())
	for _, wt := range weights {
		if d < wt.n {
			return wt.name
		}
		d -= wt.n
	}
	return "read"
}

func (w *FSWorkload) randFile() string {
	if len(w.files) == 0 {
		return ""
	}
	return w.files[w.rng.Intn(len(w.files))]
}

func (w *FSWorkload) randDir() string {
	return w.dirs[w.rng.Intn(len(w.dirs))]
}

func (w *FSWorkload) freshName(dir, prefix string) string {
	name := fmt.Sprintf("%s/%s%06d", dir, prefix, w.rng.Intn(1000000))
	if strings.HasPrefix(name, "//") {
		name = name[1:]
	}
	return name
}

func (w *FSWorkload) dropFile(path string) {
	for i, f := range w.files {
		if f == path {
			w.files = append(w.files[:i], w.files[i+1:]...)
			return
		}
	}
}

func (w *FSWorkload) dropDir(path string) {
	for i, d := range w.dirs {
		if d == path {
			w.dirs = append(w.dirs[:i], w.dirs[i+1:]...)
			return
		}
	}
}

// Run executes the workload against v.
func (w *FSWorkload) Run(v *vfs.VFS, task *kbase.Task) FSStats {
	stats := FSStats{ByKind: map[string]int{}, ErrnoCounts: map[string]int{}}
	buf := make([]byte, w.cfg.MaxWriteSize)
	note := func(kind string, err kbase.Errno) {
		stats.Ops++
		stats.ByKind[kind]++
		if err != kbase.EOK {
			stats.Errors++
			stats.ErrnoCounts[err.String()]++
		}
	}
	for i := 0; i < w.cfg.Ops; i++ {
		switch op := w.pick(); op {
		case "create":
			path := w.freshName(w.randDir(), "f")
			fd, err := v.Open(task, path, vfs.OWrOnly|vfs.OCreate|vfs.OExcl)
			if err == kbase.EOK {
				_ = v.Close(fd) // workload records per-op status via note(op, err)
				w.files = append(w.files, path)
			}
			note(op, err)
		case "write":
			path := w.randFile()
			if path == "" {
				continue
			}
			n := 1 + w.rng.Intn(w.cfg.MaxWriteSize)
			w.rng.Bytes(buf[:n])
			fd, err := v.Open(task, path, vfs.OWrOnly)
			if err == kbase.EOK {
				off := int64(w.rng.Intn(4 * w.cfg.MaxWriteSize))
				var wrote int
				wrote, err = v.Pwrite(task, fd, buf[:n], off)
				stats.BytesWritten += int64(wrote)
				_ = v.Close(fd) // workload records per-op status via note(op, err)
			}
			note(op, err)
		case "read":
			path := w.randFile()
			if path == "" {
				continue
			}
			fd, err := v.Open(task, path, vfs.ORdOnly)
			if err == kbase.EOK {
				var n int
				n, err = v.Pread(task, fd, buf, int64(w.rng.Intn(4*w.cfg.MaxWriteSize)))
				stats.BytesRead += int64(n)
				_ = v.Close(fd) // workload records per-op status via note(op, err)
			}
			note(op, err)
		case "mkdir":
			path := w.freshName(w.randDir(), "d")
			err := v.Mkdir(task, path)
			if err == kbase.EOK {
				w.dirs = append(w.dirs, path)
			}
			note(op, err)
		case "unlink":
			path := w.randFile()
			if path == "" {
				continue
			}
			err := v.Unlink(task, path)
			if err == kbase.EOK {
				w.dropFile(path)
			}
			note(op, err)
		case "rmdir":
			if len(w.dirs) <= 1 {
				continue
			}
			path := w.dirs[1+w.rng.Intn(len(w.dirs)-1)]
			err := v.Rmdir(task, path)
			if err == kbase.EOK {
				w.dropDir(path)
			}
			note(op, err)
		case "rename":
			path := w.randFile()
			if path == "" {
				continue
			}
			newPath := w.freshName(w.randDir(), "r")
			err := v.Rename(task, path, newPath)
			if err == kbase.EOK {
				w.dropFile(path)
				w.files = append(w.files, newPath)
			}
			note(op, err)
		case "fsync":
			path := w.randFile()
			if path == "" {
				continue
			}
			fd, err := v.Open(task, path, vfs.ORdOnly)
			if err == kbase.EOK {
				err = v.Fsync(task, fd)
				_ = v.Close(fd) // workload records per-op status via note(op, err)
			}
			note(op, err)
		case "truncate":
			path := w.randFile()
			if path == "" {
				continue
			}
			err := v.Truncate(task, path, int64(w.rng.Intn(2*w.cfg.MaxWriteSize)))
			note(op, err)
		}
	}
	return stats
}
