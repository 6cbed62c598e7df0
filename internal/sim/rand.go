package sim

// Rand is a small deterministic PRNG (xorshift64*) used for workload jitter.
// The standard library's math/rand would also be deterministic when seeded,
// but carrying our own generator keeps each owner's stream (a host's, a
// fleet's, a tenant's; never the kernel's) independent of global state
// and of Go version changes to rand internals.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero is remapped, as
// xorshift has a zero fixed point).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// SplitSeed derives an independent child seed from (seed, stream) with a
// splitmix64 finalizer. Simulations sharing one kernel use it to give
// each component its own seed: two streams built from the same run seed but
// different stream indices draw uncorrelated sequences, and the derivation
// is a pure function so runs stay reproducible.
func SplitSeed(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [0, d).
func (r *Rand) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(r.Int63n(int64(d)))
}

// Durations fills dst with independent uniform durations in [0, d), drawing
// exactly as len(dst) sequential Duration calls would: for d <= 0 every
// entry is 0 and no draws are consumed, so batched and unbatched callers
// stay on the same stream.
func (r *Rand) Durations(dst []Duration, d Duration) {
	if d <= 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	x := r.state
	for i := range dst {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		dst[i] = Duration((x * 0x2545F4914F6CDD1D) % uint64(d))
	}
	r.state = x
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
// It is the standard way experiments add bounded noise to service times.
func (r *Rand) Jitter(base Duration, frac float64) Duration {
	if frac <= 0 {
		return base
	}
	lo := float64(base) * (1 - frac)
	hi := float64(base) * (1 + frac)
	return Duration(lo + (hi-lo)*r.Float64())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := int(r.Int63n(int64(i + 1)))
		p[i] = p[j]
		p[j] = i
	}
	return p
}
