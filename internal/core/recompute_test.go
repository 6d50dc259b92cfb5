package core

// Tests for the bridged recompute chains of recomputeBatch: steady-state
// allocation discipline on every chain shape, and exactness of the pruned
// plan when need lists mix bridged gaps, broken gaps and span-capped
// chains.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// TestRecomputeBatchZeroAlloc drives a warm run's recompute batch through
// a need list holding every chain shape — a bridged chain that swallows a
// contiguous run of 8+ anchors, a chain split by the seedBlockRows span
// cap, an isolated pair of heads sharing one DotsPair, and an odd single
// head on its own transform — and asserts the batch allocates nothing
// once the run-owned scratch is warm, and that every pooled row is
// accounted for.
func TestRecomputeBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randWalk(rng, 4000)
	eng := NewEngine()
	cfg := Config{LMin: 32, LMax: 64, TopK: 5, Workers: 1}
	r := newTestRun(t, eng, x, cfg)
	l := cfg.LMin + 2
	for step := cfg.LMin + 1; step <= l; step++ {
		if _, _, err := r.processLength(step); err != nil {
			t.Fatal(err)
		}
	}
	s := len(x) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)

	var need []int
	need = append(need, 100, 110, 140, 200) // bridged gaps ≤ bridgeMaxGap
	run := len(need)
	for i := 300; i < 312; i++ { // contiguous run: reseeded, never cached
		need = append(need, i)
	}
	for i := 1000; i <= 1700; i += 100 { // spans > seedBlockRows: split
		need = append(need, i)
	}
	need = append(need, 2500, 3000, 3500) // isolated heads
	need = append(need, 3900)             // odd head: a lone transform

	r.recomputeBatch(need, l, excl, s, &r.lmp)
	segs := r.segs
	if len(segs)%2 != 1 {
		t.Fatalf("need list cut into %d chains, want an odd count", len(segs))
	}
	split := false
	for k := 1; k < len(segs); k++ {
		prev, head := need[segs[k-1].hi-1], need[segs[k].lo]
		if head-prev <= bridgeMaxGap {
			split = true // cut by the span cap, not by a gap
		}
	}
	if !split {
		t.Fatalf("no chain was split by the span cap: %v", segs)
	}
	if segs[0].hi < run+12 {
		t.Fatalf("first chain %v does not bridge into the contiguous run", segs[0])
	}
	// Hot-row eligibility: everything outside the run of 12 is cached.
	for k, i := range need {
		_, _, hot := r.store.HotRow(i)
		if inRun := k >= run && k < run+12; hot == inRun {
			t.Fatalf("anchor %d: hot=%v, want %v", i, hot, !inRun)
		}
	}
	// A cached row is the exact dot-product row of its anchor.
	for _, i := range []int{200, 1700, 3000, 3900} {
		row, _, _ := r.store.HotRow(i)
		for j := 0; j < s; j += 97 {
			want := series.Dot(x[i:i+l], x[j:j+l])
			if math.Abs(row[j]-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("anchor %d cell %d: cached %g, want %g", i, j, row[j], want)
			}
		}
	}

	// The probe batches find the cached anchors already hot, so they take
	// no rows: what is measured is the batch's own scratch, transforms and
	// walks.
	avg := testing.AllocsPerRun(10, func() {
		r.recomputeBatch(need, l, excl, s, &r.lmp)
	})
	if avg != 0 {
		t.Fatalf("warm recomputeBatch allocates %.1f objects per batch, want 0", avg)
	}
	// Row-pool balance: the run holds exactly its two scan rows and the
	// hot cache's rows; the test cleanup returns the rest.
	held := int64(1 + r.store.HotCount())
	if r.rowQT2 != nil {
		held++
		t.Cleanup(func() { eng.putRow(r.rowQT2) })
	}
	if b := eng.rowPoolBalance(); b != held {
		t.Fatalf("row pool balance %d, want %d held by the run", b, held)
	}
}

// TestBridgedRecomputeExact runs the pruned plan on a series whose
// recompute need lists mix gaps the chains bridge, gaps that break them
// and chains cut by the span cap, and checks the pairs of every length
// against stomp.Brute, byte-identity at workers 1, 2 and 4, and the
// per-length recompute counts. The counts pin the need lists: bridging
// changes how a needed row is computed, never which anchors are needed.
func TestBridgedRecomputeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := randWalk(rng, 1500)
	cfg := Config{LMin: 40, LMax: 45, TopK: 10, P: 2, RecomputeFraction: 0.5}

	// The chain shapes, read off the last batch of each length of a
	// directly driven run (the final fixpoint round recomputes nothing, so
	// r.need's backing array still holds that batch's list).
	dr := newTestRun(t, NewEngine(), x, cfg)
	var bridged, broken, capped int
	for l := cfg.LMin + 1; l <= cfg.LMax; l++ {
		lr, _, err := dr.processLength(l)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Stats.FullRecompute || lr.Stats.Recomputed == 0 {
			continue
		}
		need := dr.need[:cap(dr.need)]
		for k, c := range dr.segs {
			for y := c.lo + 1; y < c.hi; y++ {
				if need[y]-need[y-1] > 1 {
					bridged++
				}
			}
			if k > 0 {
				if need[c.lo]-need[dr.segs[k-1].hi-1] > bridgeMaxGap {
					broken++
				} else {
					capped++
				}
			}
		}
	}
	if bridged == 0 || broken == 0 || capped == 0 {
		t.Fatalf("need lists lack a chain shape: %d bridged gaps, %d broken gaps, %d span cuts", bridged, broken, capped)
	}

	var results []*Result
	for _, w := range []int{1, 2, 4} {
		c := cfg
		c.Workers = w
		res, err := Run(x, c)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// Per-length recompute counts of the one-transform-per-anchor
	// recompute path that chains replaced, on this series and config.
	wantRecomputed := []int{0, 178, 189, 153, 139, 146}
	base := results[0]
	for li, lr := range base.PerLength {
		if lr.Stats.Recomputed != wantRecomputed[li] {
			t.Fatalf("m=%d: %d anchors recomputed, want %d", lr.M, lr.Stats.Recomputed, wantRecomputed[li])
		}
		want, err := stomp.Brute(x, lr.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEquivalent(t, lr.StatsTag(), lr.Pairs, want.TopKPairs(cfg.TopK))
	}
	for ri, res := range results[1:] {
		for li := range base.PerLength {
			a, b := base.PerLength[li], res.PerLength[li]
			if len(a.Pairs) != len(b.Pairs) || a.Stats != b.Stats {
				t.Fatalf("workers variant %d: m=%d differs: %+v vs %+v", ri, a.M, a.Stats, b.Stats)
			}
			for pi := range a.Pairs {
				if a.Pairs[pi] != b.Pairs[pi] {
					t.Fatalf("workers variant %d: m=%d pair %d: %v vs %v", ri, a.M, pi, a.Pairs[pi], b.Pairs[pi])
				}
			}
		}
	}
}
