package fft

import (
	"math/bits"
	"sync"
)

// blockFactor sets the overlap-save block size: B = NextPowerOfTwo(
// blockFactor·maxQueryLen), capped at the single-block size, so at least
// three quarters of every B-point inverse are kept outputs. A sweep of
// one DotsPair at n=20k on a 2-vCPU AVX2 Xeon over factors {2, 4, 6, 8,
// 16} and maxQueryLen {32, 64, 83, 128, 200, 400} put 4 within 10% of
// the fastest factor at every length and fastest at 400; 2 loses 9–43% to
// the shrinking hop, and 6 or more lose 27% at maxQueryLen=400, where B
// reaches 4096 points (64 KB per B-point buffer). CHANGES.md has the
// figures.
const blockFactor = 4

// pools recycles the complex buffers behind correlators, one pool per size
// class: class c holds buffers whose capacity lies in (2^(c-1), 2^c]. One
// VALMOD run builds a correlator per series plus a clone per worker, and
// repeated engine runs would otherwise reallocate the block spectra every
// time. Keying by size class keeps a many-block spectrum from being handed
// out as B-point scratch, and the reverse.
var pools [bits.UintSize]sync.Pool // class -> *[]complex128

func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// getBuf returns a pooled buffer of length size; its contents are dirty.
func getBuf(size int) *[]complex128 {
	if v := pools[sizeClass(size)].Get(); v != nil {
		if b := v.(*[]complex128); cap(*b) >= size {
			*b = (*b)[:size]
			return b
		}
	}
	b := make([]complex128, size)
	return &b
}

func putBuf(b *[]complex128) { pools[sizeClass(cap(*b))].Put(b) }

// Correlator computes sliding dot products of many short queries against
// one fixed series by overlap-save block correlation. The series is cut
// into blocks t[b·h : b·h+B] (zero-padded past its end) that overlap by
// maxQueryLen−1 points, and each block's B-point spectrum is computed
// once. A query then costs one B-point forward transform, and each block
// one pointwise product and one B-point inverse whose circular correlation
// is exact at h = B−maxQueryLen+1 offsets. The work per output is
// Θ(log B) instead of Θ(log n) for a transform of the whole padded series,
// and every transform stays cache-resident. Dots packs two blocks into one
// inverse (the real and imaginary parts of a real query's two block
// correlations); DotsPair packs two real queries into one complex query.
// VALMOD's recompute path issues thousands of such queries per run.
type Correlator struct {
	n      int // series length
	maxQ   int // longest accepted query
	size   int // block size B, a power of two
	hop    int // outputs per block, B−maxQ+1
	blocks int // blocks covering every output of a length-1 query

	spec *[]complex128 // blocks·B block spectra, shared with clones
	x, y *[]complex128 // B-point scratch: query spectrum, block product
	// ownsSpec marks the correlator that built the spectra; clones share
	// them and must not return them to the pool on Release.
	ownsSpec bool
}

// NewCorrelator prepares a correlator for series t accepting queries up to
// maxQueryLen points. It panics when t is empty or maxQueryLen < 1.
// Call Release when done to recycle the buffers.
func NewCorrelator(t []float64, maxQueryLen int) *Correlator {
	c := &Correlator{}
	c.init(t, maxQueryLen)
	return c
}

func (c *Correlator) init(t []float64, maxQueryLen int) {
	n := len(t)
	if n == 0 || maxQueryLen < 1 {
		panic("fft: NewCorrelator requires a series and maxQueryLen >= 1")
	}
	size := min(NextPowerOfTwo(blockFactor*maxQueryLen), NextPowerOfTwo(n+maxQueryLen-1))
	hop := size - maxQueryLen + 1
	*c = Correlator{
		n:        n,
		maxQ:     maxQueryLen,
		size:     size,
		hop:      hop,
		blocks:   (n + hop - 1) / hop,
		x:        getBuf(size),
		y:        getBuf(size),
		ownsSpec: true,
	}
	c.spec = getBuf(c.blocks * size)
	spec := *c.spec
	for b := 0; b < c.blocks; b++ {
		blk := spec[b*size : (b+1)*size]
		seg := t[b*hop : min(b*hop+size, n)]
		for i, v := range seg {
			blk[i] = complex(v, 0)
		}
		clear(blk[len(seg):]) // pooled memory is dirty past the series
		radix2(blk, false)
	}
}

// N returns the series length.
func (c *Correlator) N() int { return c.n }

// Clone returns a correlator sharing the (immutable) block spectra but
// owning fresh scratch, so clones can run queries concurrently. Release the
// clone before releasing the correlator it was cloned from.
func (c *Correlator) Clone() *Correlator {
	cl := &Correlator{}
	cl.cloneFrom(c)
	return cl
}

// cloneFrom makes c a clone of src. NewCorrelator and Clone stay small
// enough to inline, so a correlator that does not outlive its caller's
// frame costs no heap object beyond its pooled buffers.
func (c *Correlator) cloneFrom(src *Correlator) {
	*c = *src
	c.x, c.y = getBuf(c.size), getBuf(c.size)
	c.ownsSpec = false
}

// Release returns the correlator's buffers to the pool. The correlator must
// not be used afterwards; a spectrum-owning correlator must outlive its
// clones. Release is idempotent.
func (c *Correlator) Release() {
	if c.x != nil {
		putBuf(c.x)
		putBuf(c.y)
		c.x, c.y = nil, nil
	}
	if c.ownsSpec && c.spec != nil {
		putBuf(c.spec)
	}
	c.spec = nil
}

// query loads the reversed query into the x scratch and transforms it.
// Only the real parts are set when q2 is nil.
func (c *Correlator) query(q1, q2 []float64) []complex128 {
	m := len(q1)
	x := *c.x
	if q2 == nil {
		for i, v := range q1 {
			x[m-1-i] = complex(v, 0) // fills x[0:m]
		}
	} else {
		for i := 0; i < m; i++ {
			x[m-1-i] = complex(q1[i], q2[i])
		}
	}
	clear(x[m:])
	radix2(x, false)
	return x
}

// valid reports the output count for a query of m points, or 0 when the
// query is empty, longer than maxQueryLen, or longer than the series.
func (c *Correlator) valid(m int) int {
	if m == 0 || m > c.maxQ || m > c.n {
		return 0
	}
	return c.n - m + 1
}

func resize(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// Dots writes dot(q, t[j:j+len(q)]) for every valid j into dst (allocated
// when too small) and returns it. Returns nil when the query is empty,
// longer than the correlator's maxQueryLen, or longer than the series.
func (c *Correlator) Dots(q []float64, dst []float64) []float64 {
	m := len(q)
	out := c.valid(m)
	if out == 0 {
		return nil
	}
	dst = resize(dst, out)
	x := c.query(q, nil)
	y, spec := *c.y, *c.spec
	size, hop := c.size, c.hop
	scale := 1 / float64(size)
	nb := (out + hop - 1) / hop
	for b := 0; b < nb; b += 2 {
		ta := spec[b*size : (b+1)*size]
		if b+1 == nb {
			for k, v := range x {
				y[k] = v * ta[k]
			}
			radix2(y, true)
			for j, v := range y[m-1 : m-1+min(hop, out-b*hop)] {
				dst[b*hop+j] = real(v) * scale
			}
			break
		}
		// Both block correlations are real for a real query, so the
		// spectrum Ta + i·Tb yields block b in the real part and block
		// b+1 in the imaginary part of one inverse.
		tb := spec[(b+1)*size : (b+2)*size]
		for k, v := range x {
			u, w := ta[k], tb[k]
			y[k] = v * complex(real(u)-imag(w), imag(u)+real(w))
		}
		radix2(y, true)
		for j, v := range y[m-1 : m-1+hop] {
			dst[b*hop+j] = real(v) * scale
		}
		for j, v := range y[m-1 : m-1+min(hop, out-(b+1)*hop)] {
			dst[(b+1)*hop+j] = imag(v) * scale
		}
	}
	return dst
}

// DotsPair computes the sliding dot products of two equal-length queries
// with one forward transform and one inverse per block: the reversed
// queries are packed as real and imaginary parts, and linearity keeps them
// separated through the pointwise product with each real block's spectrum.
// Returns (nil, nil) on invalid input (see Dots).
func (c *Correlator) DotsPair(q1, q2 []float64, dst1, dst2 []float64) ([]float64, []float64) {
	m := len(q1)
	out := c.valid(m)
	if out == 0 || len(q2) != m {
		return nil, nil
	}
	dst1, dst2 = resize(dst1, out), resize(dst2, out)
	x := c.query(q1, q2)
	y, spec := *c.y, *c.spec
	size, hop := c.size, c.hop
	scale := 1 / float64(size)
	for b := 0; b*hop < out; b++ {
		tb := spec[b*size : (b+1)*size]
		for k, v := range x {
			y[k] = v * tb[k]
		}
		radix2(y, true)
		d1, d2 := dst1[b*hop:], dst2[b*hop:]
		for j, v := range y[m-1 : m-1+min(hop, out-b*hop)] {
			d1[j] = real(v) * scale
			d2[j] = imag(v) * scale
		}
	}
	return dst1, dst2
}
