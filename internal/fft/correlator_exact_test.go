package fft

import (
	"math"
	"math/rand"
	"testing"
)

// directDots is the O(n·m) reference: dot(q, t[j:j+m]) for every j.
func directDots(q, t []float64) []float64 {
	m := len(q)
	out := make([]float64, len(t)-m+1)
	for j := range out {
		var sum float64
		for k, v := range q {
			sum += v * t[j+k]
		}
		out[j] = sum
	}
	return out
}

// dotScale is max_j Σ_k |q_k·t[j+k]|, the magnitude rounding errors of any
// correct summation order are measured against.
func dotScale(q, t []float64) float64 {
	aq := make([]float64, len(q))
	at := make([]float64, len(t))
	for i, v := range q {
		aq[i] = math.Abs(v)
	}
	for i, v := range t {
		at[i] = math.Abs(v)
	}
	scale := 0.0
	for _, v := range directDots(aq, at) {
		scale = max(scale, v)
	}
	return scale
}

func randomWalk(rng *rand.Rand, n int) []float64 {
	t := make([]float64, n)
	v := 0.0
	for i := range t {
		v += rng.NormFloat64()
		t[i] = v
	}
	return t
}

// checkDots fails when got differs from the direct sums by more than
// relTol·dotScale, or has the wrong length.
func checkDots(t *testing.T, what string, got, q, series []float64, relTol float64) {
	t.Helper()
	want := directDots(q, series)
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	tol := relTol * (1 + dotScale(q, series))
	for j := range want {
		if math.Abs(got[j]-want[j]) > tol {
			t.Fatalf("%s: j=%d got %g want %g (tol %g)", what, j, got[j], want[j], tol)
		}
	}
}

// TestCorrelatorExactAgainstDirectSums walks the overlap-save geometry's
// edges — one block, a hop boundary on either side, several whole hops,
// one block size — and a long series, for the shortest, a middle and the
// longest query, through Dots and DotsPair.
func TestCorrelatorExactAgainstDirectSums(t *testing.T) {
	const maxQ = 40
	geo := NewCorrelator(make([]float64, 20000), maxQ)
	B, h := geo.size, geo.hop
	geo.Release()
	if B >= 20000 || h != B-maxQ+1 {
		t.Fatalf("unexpected geometry B=%d h=%d", B, h)
	}
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, h - 1, h, h + 1, 3 * h, 3*h + 1, B - 1, B, 20000} {
		series := randomWalk(rng, n)
		c := NewCorrelator(series, maxQ)
		for _, m := range []int{1, maxQ / 2, maxQ} {
			if m > n {
				if c.Dots(make([]float64, m), nil) != nil {
					t.Fatalf("n=%d m=%d: query longer than the series accepted", n, m)
				}
				continue
			}
			q1 := series[n-m:]
			q2 := randomWalk(rng, m)
			checkDots(t, "Dots", c.Dots(q1, nil), q1, series, 1e-12)
			checkDots(t, "Dots random query", c.Dots(q2, nil), q2, series, 1e-12)
			d1, d2 := c.DotsPair(q1, q2, nil, nil)
			checkDots(t, "DotsPair first", d1, q1, series, 1e-12)
			checkDots(t, "DotsPair second", d2, q2, series, 1e-12)
		}
		c.Release()
	}
}

// TestCorrelatorMaxQueryLenCoversSeries: a maxQueryLen at or beyond the
// series length caps the block at the single-block size, and every query
// up to the series length stays exact.
func TestCorrelatorMaxQueryLenCoversSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 5, 40} {
		series := randomWalk(rng, n)
		for _, maxQ := range []int{n, n + 1, 4 * n} {
			c := NewCorrelator(series, maxQ)
			if c.blocks != 1 {
				t.Fatalf("n=%d maxQ=%d: %d blocks, want 1", n, maxQ, c.blocks)
			}
			for m := 1; m <= n; m++ {
				q := series[:m]
				checkDots(t, "Dots", c.Dots(q, nil), q, series, 1e-12)
				d1, d2 := c.DotsPair(q, series[n-m:], nil, nil)
				checkDots(t, "DotsPair first", d1, q, series, 1e-12)
				checkDots(t, "DotsPair second", d2, series[n-m:], series, 1e-12)
			}
			if c.Dots(make([]float64, n+1), nil) != nil {
				t.Fatalf("n=%d maxQ=%d: query longer than the series accepted", n, maxQ)
			}
			c.Release()
		}
	}
}

// TestCorrelatorDirtyPooledBuffers: a correlator of another size leaves
// its spectra and scratch dirty in the pools; a correlator built next,
// whose buffers fall in the same size classes, must still be exact.
func TestCorrelatorDirtyPooledBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	big := randomWalk(rng, 9000)
	c1 := NewCorrelator(big, 100) // B=512, 22 blocks: an 11264-point spectrum
	for i := 0; i < 3; i++ {
		_, _ = c1.DotsPair(big[i:i+100], big[500+i:600+i], nil, nil)
	}
	cl := c1.Clone()
	_ = cl.Dots(big[7:90], nil)
	cl.Release()
	c1.Release()

	series := randomWalk(rng, 7000)
	c2 := NewCorrelator(series, 90) // B=512, 17 blocks: 8704 points, same class
	defer c2.Release()
	for _, m := range []int{1, 45, 90} {
		q1, q2 := series[10:10+m], series[6000:6000+m]
		checkDots(t, "Dots", c2.Dots(q1, nil), q1, series, 1e-12)
		d1, d2 := c2.DotsPair(q1, q2, nil, nil)
		checkDots(t, "DotsPair first", d1, q1, series, 1e-12)
		checkDots(t, "DotsPair second", d2, q2, series, 1e-12)
	}
}

// maxRelErr is max_j |got_j − want_j| / max_j |want_j|.
func maxRelErr(got, want []float64) float64 {
	var diff, mag float64
	for j := range want {
		diff = max(diff, math.Abs(got[j]-want[j]))
		mag = max(mag, math.Abs(want[j]))
	}
	return diff / mag
}

// fullDotsPair is DotsPair as one transform over the whole padded series:
// both reversed queries packed into one complex query, one forward and one
// inverse transform of NextPowerOfTwo(n+m−1) points.
func fullDotsPair(q1, q2, t []float64) ([]float64, []float64) {
	n, m := len(t), len(q1)
	size := NextPowerOfTwo(n + m - 1)
	x, ft := make([]complex128, size), make([]complex128, size)
	for i := range q1 {
		x[m-1-i] = complex(q1[i], q2[i])
	}
	for i, v := range t {
		ft[i] = complex(v, 0)
	}
	Forward(x)
	Forward(ft)
	for i := range x {
		x[i] *= ft[i]
	}
	Inverse(x)
	d1, d2 := make([]float64, n-m+1), make([]float64, n-m+1)
	for j := range d1 {
		d1[j], d2[j] = real(x[m-1+j]), imag(x[m-1+j])
	}
	return d1, d2
}

// TestCorrelatorErrorNoWorseThanFullTransform: on random walks at the
// engine's geometry, the block correlator's error against the direct sums
// is no worse than that of one transform over the whole padded series,
// which is what the correlator replaced: Dots against SlidingDotProducts,
// DotsPair against the same packed pair transformed at full size (a pair
// shares its rounding error, so the smaller query's error follows the
// larger one's magnitude either way).
func TestCorrelatorErrorNoWorseThanFullTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{4096, 20000} {
		series := randomWalk(rng, n)
		c := NewCorrelator(series, 83)
		var blockErr, fullErr float64
		for _, m := range []int{64, 83} {
			q2 := series[n/2 : n/2+m]
			want2 := directDots(q2, series)
			for _, at := range []int{0, n / 3, n - m} {
				q := series[at : at+m]
				want := directDots(q, series)
				d1, d2 := c.DotsPair(q, q2, nil, nil)
				f1, f2 := fullDotsPair(q, q2, series)
				blockErr = max(blockErr, maxRelErr(c.Dots(q, nil), want), maxRelErr(d1, want), maxRelErr(d2, want2))
				fullErr = max(fullErr, maxRelErr(SlidingDotProducts(q, series), want), maxRelErr(f1, want), maxRelErr(f2, want2))
			}
		}
		c.Release()
		t.Logf("n=%d: max relative error: block correlator %.2g, full-size transform %.2g", n, blockErr, fullErr)
		if blockErr > fullErr {
			t.Errorf("n=%d: block correlator error %.3g exceeds the full-size transform's %.3g", n, blockErr, fullErr)
		}
	}
}

// TestCorrelatorPoolReuse: a warm NewCorrelator+Clone+Release cycle
// allocates nothing, and the size-class pools never hand a block spectrum
// out as B-point scratch.
func TestCorrelatorPoolReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	series := randomWalk(rand.New(rand.NewSource(26)), 20000)
	cycle := func() {
		c := NewCorrelator(series, 83)
		cl := c.Clone()
		cl.Release()
		c.Release()
	}
	cycle()
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("warm correlator cycle allocates %.1f objects, want 0", avg)
	}

	c := NewCorrelator(series, 83)
	spec := c.spec
	if c.blocks < 2 {
		t.Fatalf("want a many-block spectrum, got %d blocks", c.blocks)
	}
	c.Release()
	for i := 0; i < 4; i++ {
		c = NewCorrelator(series, 83)
		cl := c.Clone()
		for _, b := range []*[]complex128{c.x, c.y, cl.x, cl.y} {
			if b == spec || cap(*b) != c.size {
				t.Fatalf("B-point scratch has capacity %d (B=%d): a spectrum came back as scratch", cap(*b), c.size)
			}
		}
		if cap(*c.spec) < c.blocks*c.size {
			t.Fatalf("spectrum capacity %d < %d", cap(*c.spec), c.blocks*c.size)
		}
		spec = c.spec
		cl.Release()
		c.Release()
	}
}

// FuzzCorrelator checks Dots and DotsPair against the direct sums on
// arbitrary small-integer series, block geometries and query lengths,
// including maxQueryLen at or beyond the series length and queries the
// contract rejects.
func FuzzCorrelator(f *testing.F) {
	f.Add([]byte("overlap-save block correlator"), uint8(7), uint8(7), uint16(3), true)
	f.Add([]byte{1}, uint8(0), uint8(0), uint16(0), false)
	f.Add(make([]byte, 300), uint8(40), uint8(40), uint16(0), true)
	f.Add([]byte("a series a little longer than one block of the smallest geometry: 0123456789abcdef"), uint8(3), uint8(2), uint16(50), false)
	f.Fuzz(func(t *testing.T, data []byte, mq, mm uint8, off uint16, pair bool) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		n := len(data)
		series := make([]float64, n)
		for i, b := range data {
			series[i] = float64(int8(b)) / 4
		}
		maxQ := 1 + int(mq)%130
		m := 1 + int(mm)%(maxQ+2) // may exceed maxQ: must be rejected
		c := NewCorrelator(series, maxQ)
		defer c.Release()
		if m > maxQ || m > n {
			if c.Dots(make([]float64, m), nil) != nil {
				t.Fatalf("n=%d maxQ=%d m=%d: invalid query accepted", n, maxQ, m)
			}
			return
		}
		q1 := series[int(off)%(n-m+1):][:m]
		if !pair {
			checkDots(t, "Dots", c.Dots(q1, nil), q1, series, 1e-12)
			return
		}
		q2 := make([]float64, m)
		for i := range q2 {
			q2[i] = series[n-1-i] - 1
		}
		d1, d2 := c.DotsPair(q1, q2, nil, nil)
		checkDots(t, "DotsPair first", d1, q1, series, 1e-12)
		checkDots(t, "DotsPair second", d2, q2, series, 1e-12)
	})
}
