package fft

import (
	"math"
	"math/rand"
	"testing"
)

func TestCorrelatorDotsMatchesSlidingDotProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tt := make([]float64, 500)
	for i := range tt {
		tt[i] = rng.NormFloat64()
	}
	c := NewCorrelator(tt, 64)
	for _, m := range []int{1, 7, 32, 64} {
		q := tt[100 : 100+m]
		got := c.Dots(q, nil)
		want := SlidingDotProducts(q, tt)
		if len(got) != len(want) {
			t.Fatalf("m=%d: len %d want %d", m, len(got), len(want))
		}
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-7*(1+math.Abs(want[j])) {
				t.Fatalf("m=%d j=%d: %g want %g", m, j, got[j], want[j])
			}
		}
	}
}

func TestCorrelatorDotsPairMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tt := make([]float64, 400)
	for i := range tt {
		tt[i] = rng.NormFloat64() * 3
	}
	c := NewCorrelator(tt, 50)
	q1 := tt[30:75]
	q2 := tt[200:245]
	d1, d2 := c.DotsPair(q1, q2, nil, nil)
	w1 := SlidingDotProducts(q1, tt)
	w2 := SlidingDotProducts(q2, tt)
	for j := range w1 {
		if math.Abs(d1[j]-w1[j]) > 1e-7*(1+math.Abs(w1[j])) {
			t.Fatalf("pair q1 j=%d: %g want %g", j, d1[j], w1[j])
		}
		if math.Abs(d2[j]-w2[j]) > 1e-7*(1+math.Abs(w2[j])) {
			t.Fatalf("pair q2 j=%d: %g want %g", j, d2[j], w2[j])
		}
	}
}

func TestCorrelatorDstReuse(t *testing.T) {
	tt := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	c := NewCorrelator(tt, 4)
	buf := make([]float64, 0, 8)
	got := c.Dots([]float64{1, 1}, buf)
	if len(got) != 7 {
		t.Fatalf("len %d", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Error("expected dst reuse")
	}
}

func TestCorrelatorInvalidInputs(t *testing.T) {
	tt := make([]float64, 20)
	c := NewCorrelator(tt, 8)
	if c.Dots(nil, nil) != nil {
		t.Error("empty query should return nil")
	}
	if c.Dots(make([]float64, 30), nil) != nil {
		t.Error("oversized query should return nil")
	}
	// Longer than maxQueryLen but shorter than the series: overlap-save
	// blocks only hold queries up to maxQueryLen, so this is invalid too.
	if c.Dots(make([]float64, 13), nil) != nil {
		t.Error("query longer than maxQueryLen should return nil")
	}
	if d1, d2 := c.DotsPair(make([]float64, 13), make([]float64, 13), nil, nil); d1 != nil || d2 != nil {
		t.Error("pair longer than maxQueryLen should return nils")
	}
	if c.Dots(make([]float64, 8), nil) == nil {
		t.Error("query of exactly maxQueryLen should be accepted")
	}
	if d1, d2 := c.DotsPair(make([]float64, 3), make([]float64, 4), nil, nil); d1 != nil || d2 != nil {
		t.Error("length mismatch should return nils")
	}
	if c.N() != 20 {
		t.Errorf("N() = %d", c.N())
	}
}

func TestNewCorrelatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty series")
		}
	}()
	NewCorrelator(nil, 4)
}

// TestCorrelatorReleaseRecycles: a released correlator's buffers come back
// from the pool, and a correlator built on recycled (dirty) scratch still
// computes correct dot products.
func TestCorrelatorReleaseRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tt := make([]float64, 300)
	for i := range tt {
		tt[i] = rng.NormFloat64()
	}
	c1 := NewCorrelator(tt, 32)
	clone := c1.Clone()
	_ = clone.Dots(tt[10:26], nil)
	clone.Release()
	c1.Release()
	c1.Release() // idempotent

	// The next correlator reuses the pooled (now dirty) buffers; results
	// must be unaffected.
	c2 := NewCorrelator(tt, 32)
	defer c2.Release()
	q := tt[40:72]
	got := c2.Dots(q, nil)
	want := SlidingDotProducts(q, tt)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-7*(1+math.Abs(want[j])) {
			t.Fatalf("j=%d: %g want %g", j, got[j], want[j])
		}
	}
}

// TestCloneSharesSpectrum: clones must agree with the original exactly
// (same block spectra, so bit-identical outputs), for Dots and DotsPair.
func TestCloneSharesSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tt := make([]float64, 257)
	for i := range tt {
		tt[i] = rng.NormFloat64()
	}
	c := NewCorrelator(tt, 16)
	defer c.Release()
	clone := c.Clone()
	defer clone.Release()
	for _, m := range []int{1, 9, 16} {
		q1, q2 := tt[5:5+m], tt[200:200+m]
		a, b := c.Dots(q1, nil), clone.Dots(q1, nil)
		a1, a2 := c.DotsPair(q1, q2, nil, nil)
		b1, b2 := clone.DotsPair(q1, q2, nil, nil)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) ||
				math.Float64bits(a1[j]) != math.Float64bits(b1[j]) ||
				math.Float64bits(a2[j]) != math.Float64bits(b2[j]) {
				t.Fatalf("m=%d j=%d: clone differs from the original", m, j)
			}
		}
	}
}

// BenchmarkCorrelatorDotsPair times one paired recompute head at the
// engine's benchmark geometry: n=20k, maxQueryLen=83, queries of 83 points.
func BenchmarkCorrelatorDotsPair(b *testing.B) {
	t := randomWalk(rand.New(rand.NewSource(12)), 20000)
	c := NewCorrelator(t, 83)
	defer c.Release()
	d1, d2 := make([]float64, len(t)), make([]float64, len(t))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1, d2 = c.DotsPair(t[5000:5083], t[12000:12083], d1, d2)
	}
}

// BenchmarkCorrelatorDots times one lone head at the same geometry.
func BenchmarkCorrelatorDots(b *testing.B) {
	t := randomWalk(rand.New(rand.NewSource(12)), 20000)
	c := NewCorrelator(t, 83)
	defer c.Release()
	d := make([]float64, len(t))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = c.Dots(t[5000:5083], d)
	}
}
