// Package fft provides fast Fourier transforms over complex128 slices.
//
// The package exists because the VALMOD reproduction is stdlib-only and the
// MASS distance-profile algorithm (internal/mass) needs O(n log n) sliding
// dot products. Every transform has power-of-two length and runs an
// iterative decimation-in-time radix-2 kernel: Convolve pads to the next
// power of two, and Correlator correlates short queries against fixed
// power-of-two blocks of a long series (overlap-save), so each recomputed
// row costs Θ(n log B) for a block size B of a few times the query length.
//
// All transforms are unnormalized in the forward direction; Inverse divides
// by the length so that Inverse(Forward(x)) == x.
package fft

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if n <= 0
// or the result would overflow int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("fft: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	shift := bits.Len(uint(n))
	if shift >= bits.UintSize-2 {
		panic("fft: NextPowerOfTwo overflow")
	}
	return 1 << shift
}

// Forward computes the in-place forward DFT of x and returns x. len(x)
// must be a power of two; Forward panics otherwise.
func Forward(x []complex128) []complex128 {
	if !IsPowerOfTwo(len(x)) {
		panic("fft: Forward requires a power-of-two length")
	}
	radix2(x, false)
	return x
}

// Inverse computes the in-place inverse DFT of x (normalized by 1/len(x))
// and returns x. len(x) must be a power of two; Inverse panics otherwise.
func Inverse(x []complex128) []complex128 {
	n := len(x)
	if !IsPowerOfTwo(n) {
		panic("fft: Inverse requires a power-of-two length")
	}
	radix2(x, true)
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] *= inv
	}
	return x
}

// plan is the immutable per-size state of a power-of-two transform: the
// forward twiddles of every butterfly stage (the inverse conjugates them),
// and the bit-reversal permutation as a flat list of swap pairs (i, j),
// i < j.
// Stage size s (s ≥ 4) reads its s/2 twiddles w_k = e^(−2πik/s)
// contiguously at offset s/2−2. Each twiddle is evaluated directly at the
// full size n, e^(−2πi·k(n/s)/n), which is also more accurate than a
// running product w·=wStep in the butterfly loop.
type plan struct {
	tw    []complex128
	swaps []int32
}

// plans caches one plan per power-of-two size, indexed by log2 of the
// size, so repeated correlator queries pay sin/cos and the permutation
// exactly once and look a plan up without hashing or allocating.
var plans [bits.UintSize]atomic.Pointer[plan]

func planFor(n int) *plan {
	slot := &plans[bits.Len(uint(n))-1]
	if p := slot.Load(); p != nil {
		return p
	}
	p := &plan{}
	for size := 4; size <= n; size <<= 1 {
		for k := 0; k < size/2; k++ {
			w := cmplx.Rect(1, -2*math.Pi*float64(k*(n/size))/float64(n))
			p.tw = append(p.tw, w)
		}
	}
	shift := bits.UintSize - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> shift); j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	slot.CompareAndSwap(nil, p)
	return slot.Load()
}

// radix2 runs the iterative Cooley–Tukey decimation-in-time FFT.
// len(x) must be a power of two. When inverse is true the conjugate
// twiddles are used (normalization is the caller's responsibility).
// The first stage's twiddle is 1, so it runs without multiplications.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	p := planFor(n)
	sw := p.swaps
	for k := 0; k+1 < len(sw); k += 2 {
		i, j := sw[k], sw[k+1]
		x[i], x[j] = x[j], x[i]
	}
	for k := 0; k+1 < n; k += 2 {
		even, odd := x[k], x[k+1]
		x[k], x[k+1] = even+odd, even-odd
	}
	for size := 4; size <= n; size <<= 1 {
		half := size >> 1
		w := p.tw[half-2 : size-2]
		for start := 0; start < n; start += size {
			lo := x[start : start+half]
			hi := x[start+half : start+size]
			hi, w := hi[:len(lo)], w[:len(lo)]
			if inverse {
				for k := range lo {
					even := lo[k]
					odd := hi[k] * complex(real(w[k]), -imag(w[k]))
					lo[k] = even + odd
					hi[k] = even - odd
				}
				continue
			}
			for k := range lo {
				even := lo[k]
				odd := hi[k] * w[k]
				lo[k] = even + odd
				hi[k] = even - odd
			}
		}
	}
}

// Convolve returns the linear convolution of a and b, of length
// len(a)+len(b)-1. Either input may have any positive length; empty input
// yields nil. The inputs are not modified.
func Convolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	n := NextPowerOfTwo(outLen)
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	for i, v := range a {
		fa[i] = complex(v, 0)
	}
	for i, v := range b {
		fb[i] = complex(v, 0)
	}
	Forward(fa)
	Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	Inverse(fa)
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(fa[i])
	}
	return out
}

// SlidingDotProducts returns, for every offset j in [0, len(t)-len(q)], the
// dot product of q with t[j:j+len(q)], computed with one FFT convolution.
// It is the workhorse behind MASS. Returns nil when len(q) == 0 or
// len(q) > len(t).
func SlidingDotProducts(q, t []float64) []float64 {
	m, n := len(q), len(t)
	if m == 0 || m > n {
		return nil
	}
	// Convolving t with reversed(q) places dot(q, t[j:j+m]) at index j+m-1.
	qr := make([]float64, m)
	for i, v := range q {
		qr[m-1-i] = v
	}
	conv := Convolve(t, qr)
	out := make([]float64, n-m+1)
	copy(out, conv[m-1:m-1+len(out)])
	return out
}
