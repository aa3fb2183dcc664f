package workload

import (
	"bytes"

	"safelinux/internal/linuxlike/kbase"
	"safelinux/internal/linuxlike/net"
)

// BulkResult reports one bulk-transfer run.
type BulkResult struct {
	Bytes     int
	Steps     int
	OK        bool
	Integrity bool
}

// Bulk pushes size deterministic bytes from src to dst, stepping the
// simulation, and verifies content integrity on the receive side. The
// streams are net.Stream, so one workload drives the legacy socket
// layer or safetcp alike: the module-replacement experiment.
func Bulk(sim *net.Sim, src, dst net.Stream, size int, seed uint64, maxSteps int) BulkResult {
	rng := kbase.NewRng(seed)
	payload := make([]byte, size)
	rng.Bytes(payload)
	if err := src.Send(payload); err != kbase.EOK {
		return BulkResult{}
	}
	var got []byte
	buf := make([]byte, 4096)
	steps := 0
	ok := sim.RunUntil(func() bool {
		steps++
		for {
			n, _ := dst.Recv(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		return len(got) >= size
	}, maxSteps)
	return BulkResult{
		Bytes:     len(got),
		Steps:     steps,
		OK:        ok,
		Integrity: bytes.Equal(got, payload),
	}
}
