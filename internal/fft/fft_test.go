package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k*j%n) / float64(n)
			sum += x[j] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	if inverse {
		for i := range out {
			out[i] /= complex(float64(n), 0)
		}
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 6: false, 1024: true, 1023: false,
	}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	NextPowerOfTwo(0)
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		x := randComplex(rng, n)
		want := naiveDFT(x, false)
		got := append([]complex128(nil), x...)
		Forward(got)
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d: forward max diff %g", n, d)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 1024} {
		x := randComplex(rng, n)
		want := naiveDFT(x, true)
		got := append([]complex128(nil), x...)
		Inverse(got)
		if d := maxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d: inverse max diff %g", n, d)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 << (nRaw % 12)
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		orig := append([]complex128(nil), x...)
		Inverse(Forward(x))
		return maxDiff(x, orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Σ|x|² == (1/n)·Σ|X|² for the unnormalized forward transform.
	f := func(seed int64, nRaw uint8) bool {
		n := 1 << (nRaw % 12)
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		var timeEnergy float64
		for _, v := range x {
			timeEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) <= 1e-7*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 << r.Intn(10)
		a := randComplex(r, n)
		b := randComplex(r, n)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa := Forward(append([]complex128(nil), a...))
		fb := Forward(append([]complex128(nil), b...))
		fsum := Forward(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(fa[i]+alpha*fb[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func naiveConvolve(a, b []float64) []float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]float64, len(a)+len(b)-1)
	for i, av := range a {
		for j, bv := range b {
			out[i+j] += av * bv
		}
	}
	return out
}

func TestConvolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sizes := range [][2]int{{1, 1}, {2, 3}, {5, 5}, {16, 7}, {33, 70}, {128, 128}} {
		a := make([]float64, sizes[0])
		b := make([]float64, sizes[1])
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := Convolve(a, b)
		want := naiveConvolve(a, b)
		if len(got) != len(want) {
			t.Fatalf("sizes %v: len %d want %d", sizes, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Errorf("sizes %v idx %d: %g want %g", sizes, i, got[i], want[i])
				break
			}
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil || Convolve([]float64{1}, nil) != nil {
		t.Error("Convolve with empty input should return nil")
	}
}

func TestSlidingDotProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sz := range [][2]int{{1, 1}, {3, 10}, {8, 8}, {17, 100}, {50, 333}} {
		m, n := sz[0], sz[1]
		q := make([]float64, m)
		tt := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for i := range tt {
			tt[i] = rng.NormFloat64()
		}
		got := SlidingDotProducts(q, tt)
		if len(got) != n-m+1 {
			t.Fatalf("m=%d n=%d: len %d want %d", m, n, len(got), n-m+1)
		}
		for j := range got {
			var want float64
			for k := 0; k < m; k++ {
				want += q[k] * tt[j+k]
			}
			if math.Abs(got[j]-want) > 1e-8*(1+math.Abs(want)) {
				t.Errorf("m=%d n=%d j=%d: %g want %g", m, n, j, got[j], want)
				break
			}
		}
	}
}

func TestSlidingDotProductsDegenerate(t *testing.T) {
	if SlidingDotProducts(nil, []float64{1, 2}) != nil {
		t.Error("empty query should return nil")
	}
	if SlidingDotProducts([]float64{1, 2, 3}, []float64{1, 2}) != nil {
		t.Error("query longer than series should return nil")
	}
}

func TestForwardKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is [1, 1, 1, 1].
	x := []complex128{1, 0, 0, 0}
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > tol {
			t.Errorf("impulse DFT[%d] = %v, want 1", i, v)
		}
	}
	// DFT of constant c over n points is [n*c, 0, ..., 0].
	y := []complex128{2, 2, 2, 2}
	Forward(y)
	if cmplx.Abs(y[0]-8) > tol || cmplx.Abs(y[1]) > tol || cmplx.Abs(y[2]) > tol || cmplx.Abs(y[3]) > tol {
		t.Errorf("constant DFT = %v, want [8 0 0 0]", y)
	}
}

// TestTransformsPanicOnOtherLengths: only power-of-two transforms exist;
// any other length is a caller bug, reported like NextPowerOfTwo's.
func TestTransformsPanicOnOtherLengths(t *testing.T) {
	for _, n := range []int{0, 3, 12, 100} {
		for name, f := range map[string]func([]complex128) []complex128{"Forward": Forward, "Inverse": Inverse} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(len %d) did not panic", name, n)
					}
				}()
				f(make([]complex128, n))
			}()
		}
	}
}

func BenchmarkForwardPow2(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randComplex(rng, 1<<14)
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		Forward(buf)
	}
}
