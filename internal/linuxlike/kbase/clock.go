package kbase

import (
	"sync"
	"sync/atomic"
)

// Simulated time and deterministic randomness.
//
// All simulation components draw time from a Clock and randomness from
// an Rng so that every experiment is reproducible from a seed. The
// clock is a simple jiffies counter advanced by the I/O and network
// models; nothing in the simulated kernel reads wall-clock time.

// Clock is a monotonically advancing jiffies counter.
type Clock struct {
	jiffies atomic.Uint64
}

// NewClock returns a clock at jiffy 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current jiffy.
func (c *Clock) Now() uint64 { return c.jiffies.Load() }

// Advance moves the clock forward by n jiffies and returns the new
// time.
func (c *Clock) Advance(n uint64) uint64 { return c.jiffies.Add(n) }

// Rng is a small, fast, deterministic PRNG (splitmix64). It is
// goroutine-safe; simulation components that need independent streams
// seed their own.
type Rng struct {
	mu    sync.Mutex
	state uint64
}

// NewRng returns a generator seeded with seed.
func NewRng(seed uint64) *Rng { return &Rng{state: seed} }

// Uint64 returns the next value.
func (r *Rng) Uint64() uint64 {
	r.mu.Lock()
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("kbase: Rng.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rng) Bool(p float64) bool { return r.Float64() < p }

// Bytes fills b with pseudo-random bytes.
func (r *Rng) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
