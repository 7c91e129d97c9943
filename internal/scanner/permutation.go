// Package scanner implements §3's service discovery: Internet-wide
// port-853 sweeps in ZMap's random-permutation order followed by DoT
// verification probes, certificate collection, answer validation, and DoH
// discovery by inspecting a URL corpus for known URI templates.
package scanner

import "fmt"

// Permutation enumerates 0..N-1 exactly once in pseudorandom order, the
// property ZMap gets from iterating a cyclic multiplicative group: probes
// spread across the address space instead of hammering one network. This
// implementation uses a full-period LCG over the next power of two
// (Hull–Dobell: a ≡ 1 mod 4, c odd), skipping out-of-range values.
type Permutation struct {
	n     uint64
	mask  uint64
	a, c  uint64
	state uint64
	count uint64
}

// NewPermutation creates a permutation of [0, n) seeded deterministically.
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 {
		return nil, fmt.Errorf("scanner: empty permutation")
	}
	size := uint64(1)
	for size < n {
		size <<= 1
	}
	return &Permutation{
		n:    n,
		mask: size - 1,
		// Knuth MMIX multiplier (≡ 1 mod 4) with an odd, seed-derived
		// increment: full period over the power-of-two modulus.
		a:     6364136223846793005,
		c:     (seed << 1) | 1,
		state: seed & (size - 1),
	}, nil
}

// Next returns the next element. ok is false once all n values were
// produced.
func (p *Permutation) Next() (v uint64, ok bool) {
	for p.count < p.n {
		p.state = (p.a*p.state + p.c) & p.mask
		if p.state < p.n {
			p.count++
			return p.state, true
		}
	}
	return 0, false
}
