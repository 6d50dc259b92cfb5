package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/service"
	"github.com/seriesmining/valmod/internal/stomp"
)

// exclFactor is the engine's default trivial-match factor, which the
// workloads use and the oracle must match.
const exclFactor = profile.DefaultExclusionFactor

// near reports whether got equals want within the tolerance the engine's
// own equivalence tests use across arithmetic paths.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-6*(1+math.Abs(want)) }

// checkBatch verifies a discovery against STOMP matrix profiles computed
// independently at the given lengths (and at the top discord's length):
// the best pair must reach the profile's minimum with a real pair of that
// distance, and the top discord must be the profile's largest finite
// nearest-neighbor distance at its offset. It returns one message per
// mismatch.
func checkBatch(x []float64, res *valmod.Result, lengths []int, workers int) []string {
	var bad []string
	profiles := map[int]*profile.MatrixProfile{}
	oracle := func(l int) (*profile.MatrixProfile, error) {
		if mp, ok := profiles[l]; ok {
			return mp, nil
		}
		mp, err := stomp.ComputeParallel(x, l, exclFactor, workers)
		profiles[l] = mp
		return mp, err
	}
	for _, l := range lengths {
		mp, err := oracle(l)
		if err != nil {
			return append(bad, fmt.Sprintf("oracle at length %d: %v", l, err))
		}
		lr, ok := res.OfLength(l)
		if !ok || len(lr.Pairs) == 0 {
			bad = append(bad, fmt.Sprintf("length %d: no pairs reported", l))
			continue
		}
		best := lr.Pairs[0]
		lo, _ := extremes(mp.Dist)
		if !near(best.Distance, lo) {
			bad = append(bad, fmt.Sprintf("length %d: best pair distance %.12g, oracle minimum %.12g", l, best.Distance, lo))
		}
		if d := series.ZNormDist(x[best.A:best.A+l], x[best.B:best.B+l]); !near(best.Distance, d) {
			bad = append(bad, fmt.Sprintf("length %d: pair (%d,%d) reported %.12g, true distance %.12g", l, best.A, best.B, best.Distance, d))
		}
		if best.B-best.A < mp.Exclusion {
			bad = append(bad, fmt.Sprintf("length %d: pair (%d,%d) is a trivial match", l, best.A, best.B))
		}
	}
	if len(res.Discords) > 0 {
		top := res.Discords[0]
		mp, err := oracle(top.Length)
		if err != nil {
			return append(bad, fmt.Sprintf("oracle at length %d: %v", top.Length, err))
		}
		_, hi := extremes(mp.Dist)
		if !near(top.Distance, hi) || !near(mp.Dist[top.Offset], top.Distance) {
			bad = append(bad, fmt.Sprintf("top discord (off %d, len %d) distance %.12g, oracle max %.12g, oracle at offset %.12g",
				top.Offset, top.Length, top.Distance, hi, mp.Dist[top.Offset]))
		}
	}
	return bad
}

// extremes returns the smallest and largest finite values of d.
func extremes(d []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range d {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// hashResult digests every reported field of a discovery bit for bit, so
// repeats can be checked for bit-identity.
func hashResult(r *valmod.Result) [32]byte {
	h := sha256.New()
	w := func(vs ...float64) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	n := func(vs ...int) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, int64(v))
		}
	}
	n(r.N, r.LMin, r.LMax)
	for _, lr := range r.PerLength {
		n(lr.Length, lr.Certified, lr.Recomputed, b2i(lr.FullRecompute), b2i(lr.Incremental), len(lr.Pairs))
		for _, p := range lr.Pairs {
			n(p.A, p.B, p.Length)
			w(p.Distance, p.NormDistance)
		}
	}
	for _, d := range r.Discords {
		n(d.Offset, d.Length)
		w(d.Distance, d.NormDistance)
	}
	w(r.Profile...)
	n(r.ProfileIndex...)
	if r.VALMAP != nil {
		w(r.VALMAP.MPn...)
		n(r.VALMAP.IP...)
		n(r.VALMAP.LP...)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// equivalent compares a stream snapshot with a batch discovery of the
// same window under the stream engine's documented tolerance: per-length
// pairs rank by rank with distances within 1e-6 relative, and a different
// pair identity allowed only for a true tie (within 1e-9).
func equivalent(got, want *service.Result) error {
	if got.N != want.N || got.LMin != want.LMin || got.LMax != want.LMax || len(got.PerLength) != len(want.PerLength) {
		return fmt.Errorf("shape (N=%d,[%d,%d],%d lengths), batch (N=%d,[%d,%d],%d lengths)",
			got.N, got.LMin, got.LMax, len(got.PerLength), want.N, want.LMin, want.LMax, len(want.PerLength))
	}
	tie := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+b) }
	for i := range got.PerLength {
		g, w := got.PerLength[i], want.PerLength[i]
		if g.Length != w.Length || len(g.Pairs) != len(w.Pairs) {
			return fmt.Errorf("slot %d: length %d with %d pairs, batch length %d with %d", i, g.Length, len(g.Pairs), w.Length, len(w.Pairs))
		}
		for k := range g.Pairs {
			gp, wp := g.Pairs[k], w.Pairs[k]
			if !near(gp.Distance, wp.Distance) || ((gp.A != wp.A || gp.B != wp.B) && !tie(gp.Distance, wp.Distance)) {
				return fmt.Errorf("length %d rank %d: (%d,%d) %.12g, batch (%d,%d) %.12g", g.Length, k, gp.A, gp.B, gp.Distance, wp.A, wp.B, wp.Distance)
			}
		}
	}
	if len(got.Discords) != len(want.Discords) {
		return fmt.Errorf("%d discords, batch %d", len(got.Discords), len(want.Discords))
	}
	for k := range got.Discords {
		g, w := got.Discords[k], want.Discords[k]
		if !near(g.NormDistance, w.NormDistance) || ((g.Offset != w.Offset || g.Length != w.Length) && !tie(g.NormDistance, w.NormDistance)) {
			return fmt.Errorf("discord %d: (%d,%d) %.12g, batch (%d,%d) %.12g", k, g.Offset, g.Length, g.NormDistance, w.Offset, w.Length, w.NormDistance)
		}
	}
	return nil
}
