package safelinux

import (
	"fmt"
	"testing"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/vfs"
)

// BenchmarkDurablePwriteFsync times one durable write through the
// facade — a 4 KiB pwrite and an fsync of one file on the legacy stack
// (VFS → extlike → journal → bufcache → kio → blockdev) — with the
// compartment gates off and on. Run it with -benchmem: the per-op
// allocation count is the batch bookkeeping's cost.
func BenchmarkDurablePwriteFsync(b *testing.B) {
	for _, comp := range []bool{false, true} {
		b.Run(fmt.Sprintf("compartments=%v", comp), func(b *testing.B) {
			k, err := New(Config{Seed: 1, Compartments: comp, CaptureOops: true})
			if err != kbase.EOK {
				b.Fatalf("New: %v", err)
			}
			defer k.Close()
			fd, err := k.VFS.Open(k.Task, "/durable", vfs.ORdWr|vfs.OCreate)
			if err != kbase.EOK {
				b.Fatalf("Open: %v", err)
			}
			buf := make([]byte, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf[0] = byte(i)
				if _, err := k.VFS.Pwrite(k.Task, fd, buf, 0); err != kbase.EOK {
					b.Fatalf("Pwrite: %v", err)
				}
				if err := k.VFS.Fsync(k.Task, fd); err != kbase.EOK {
					b.Fatalf("Fsync: %v", err)
				}
			}
		})
	}
}
