package core

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
)

// hotRowBudgetBytes bounds the memory the hot-row cache may hold.
const hotRowBudgetBytes = 64 << 20

// advanceShardRows is the minimum anchors-per-worker below which the
// advance→certify pass stays serial (goroutine handoff would cost more
// than the work).
const advanceShardRows = 256

// processLengthFull resolves length l with the from-scratch per-length
// profile pass (the STOMP row scan on the seed's fixed block grid) and
// returns both the top-k pairs and the full profile. It is the
// DisableIncremental variant of the FullProfile plan (the default is
// processLengthIncremental) and the pass the planner uses when a
// whole-profile length doubles as the pruned machinery's seed: the row
// scan reseeds every anchor's partial profile, which the diagonal pass
// does not.
func (r *run) processLengthFull(l int) (LengthResult, *profile.MatrixProfile, error) {
	s := len(r.t) - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	lr := LengthResult{M: l}

	if s <= excl {
		// No non-trivial pair (hence no finite NN distance) can exist.
		return lr, nil, nil
	}
	mp, err := r.fullRecompute(l)
	if err != nil {
		return lr, nil, err
	}
	lr.Pairs = mp.TopKPairsInto(r.cfg.TopK, &r.topk)
	lr.Stats.FullRecompute = true
	return lr, mp, nil
}

// processLength resolves length l exactly, using pruning where possible:
// the data-parallel advance→certify pass over anchor shards, then the
// serial recompute-to-fixpoint over the (few) uncertified stragglers.
// The returned profile is non-nil only when the fixpoint fell back to a
// whole-profile recompute (so callers that also want discords can reuse
// the pass instead of paying a second one); on the pruned path it is nil
// and r.lmp holds the certified-or-upper-bound candidate profile.
func (r *run) processLength(l int) (LengthResult, *profile.MatrixProfile, error) {
	n := len(r.t)
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	lr := LengthResult{M: l}

	if s <= excl {
		// No non-trivial pair can exist at this length.
		return lr, nil, nil
	}

	r.momentsAt(l)
	r.advanceAll(l, excl, s)

	// Assemble the candidate profile. Certified anchors contribute their
	// exact profile value; uncertified anchors contribute minDist — a true
	// pair distance (upper bound on their profile value), which sharpens τ
	// and provably never survives into the reported top-k: a chosen
	// uncertified pair would have minDist ≤ τ, hence maxLB < τ, putting
	// its anchor into the recompute set below. lmp is run-owned scratch:
	// it never leaves processLength, so recycling it across lengths is
	// invisible outside (and makes the steady state allocation-free).
	lmp := &r.lmp
	lmp.Reset(l, excl, s)
	certified := 0
	for i := 0; i < s; i++ {
		if r.indexes[i] >= 0 {
			lmp.Dist[i] = r.dists[i]
			lmp.Index[i] = r.indexes[i]
		}
		if r.cert[i] {
			certified++
		}
	}
	lr.Stats.Certified = certified

	// Recompute-to-fixpoint: extraction with pair de-duplication is not
	// monotone in its candidate set (a newly recomputed anchor can block
	// two others and *raise* the k-th best distance τ), so one recompute
	// pass is not enough — iterate until no non-certified anchor's maxLB
	// falls at or below the current τ. Each round certifies at least one
	// new anchor, so the loop terminates.
	recomputed := 0
	for {
		if err := r.ctx.Err(); err != nil {
			return lr, nil, err
		}
		pairs := lmp.TopKPairsInto(r.cfg.TopK, &r.topk)
		// τ is the certification threshold: with a full top-k in hand, the
		// k-th best distance; otherwise +Inf (anything could still improve
		// the set).
		tau := math.Inf(1)
		if len(pairs) == r.cfg.TopK {
			tau = pairs[len(pairs)-1].Dist
		}
		need := r.need[:0]
		for i := 0; i < s; i++ {
			if !r.cert[i] && r.maxLBs[i] <= tau {
				need = append(need, i)
			}
		}
		r.need = need
		if len(need) == 0 {
			lr.Pairs = pairs
			lr.Stats.Recomputed = recomputed
			return lr, nil, nil
		}
		if float64(recomputed+len(need)) >= r.cfg.RecomputeFraction*float64(s) {
			mp, err := r.fullRecompute(l)
			if err != nil {
				return lr, nil, err
			}
			lr.Pairs = mp.TopKPairsInto(r.cfg.TopK, &r.topk)
			lr.Stats.Recomputed = recomputed
			lr.Stats.FullRecompute = true
			return lr, mp, nil
		}
		r.recomputeBatch(need, l, excl, s, lmp)
		recomputed += len(need)
	}
}

// bridgeMaxGap is the widest gap, in rows, a recompute chain bridges with
// the STOMP recurrence rather than closing and starting a new chain. A
// bridged gap of g rows costs g kernels.RowNext rows over s cells; a new
// chain head costs half a DotsPair on the overlap-save correlator, about
// (n/h)·B·log B for its block size B = NextPowerOfTwo(4·LMax) and hop
// h = B−LMax+1. Both grow linearly with n, so their ratio depends on LMax
// (through log B), not on n: on a 2-vCPU AVX2 Xeon at n=20k, LMax=83
// (B=512) one RowNext row costs ≈5.9 µs and half a DotsPair ≈0.25 ms, a
// breakeven near 40 rows. A sweep of {16, 32, 64, 128} over the pruned
// benchmark pass (ecg and astro, n=20k, ℓ 64–83) put every setting within
// run-to-run noise of the others — gaps between 40 and 128 rows are too
// rare for the extra bridged rows to show — so the constant keeps the
// wider reach, which suits larger LMax, where log B and with it the
// breakeven grow.
const bridgeMaxGap = 128

// hotRunMin is the contiguous-run length from which recomputed anchors
// stop joining the hot-row cache: neighbors that fail certification
// together are cheap to recompute together again, isolated hard anchors
// are what the cache is for.
const hotRunMin = 8

// recSeg is one recompute chain: the need-list positions [lo, hi).
type recSeg struct{ lo, hi int }

// recomputeBatch resolves the anchors in need (ascending) exactly at
// length l. The need list is cut into chains: a chain keeps extending
// while the next needed anchor is at most bridgeMaxGap rows away and the
// chain spans fewer than seedBlockRows rows (the seed grid's bound on how
// far the recurrence runs from one transform). Chain heads are
// transformed two per DotsPair round trip; each chain then walks forward
// with the O(s) STOMP recurrence (kernels.RowNext), bridging the rows
// between its needed anchors, and scans and reseeds every needed anchor
// on the way. Anchors outside contiguous runs of hotRunMin or more have
// their row copied into a pooled row for the hot-row cache (one transform
// or walk now, O(s) per length afterwards). The chains and their head
// pairing are fixed by the need list alone and touch disjoint anchors, so
// chain pairs are distributed across Workers goroutines with
// bit-identical results; only the hot-cache retention stays serial, in
// need order, so the cache contents are deterministic too. The batch's
// scratch (chains, hot rows) is run-owned: a warm batch allocates nothing.
func (r *run) recomputeBatch(need []int, l, excl, s int, lmp *profile.MatrixProfile) {
	if cap(r.hotRows) < len(need) {
		r.hotRows = make([][]float64, len(need))
	}
	hot := r.hotRows[:len(need)]
	// Hot-row eligibility, decided serially in need order exactly as the
	// retention below will: rows are only taken for anchors the store
	// will accept, so once the cache is full a batch holds no extra rows
	// and retention never hands one straight back.
	room := r.store.Budget() - r.store.HotCount()
	for x := 0; x < len(need); {
		end := x + 1
		for end < len(need) && need[end] == need[end-1]+1 {
			end++
		}
		for y := x; y < end; y++ {
			i := need[y]
			r.cert[i] = true // exact now at this length
			if _, _, isHot := r.store.HotRow(i); end-x < hotRunMin && room > 0 && !isHot {
				hot[y] = r.eng.getRow(s)
				room--
			}
		}
		x = end
	}
	segs := r.segs[:0]
	for lo := 0; lo < len(need); {
		hi := lo + 1
		for hi < len(need) && need[hi]-need[hi-1] <= bridgeMaxGap && need[hi]-need[lo] < seedBlockRows {
			hi++
		}
		segs = append(segs, recSeg{lo, hi})
		lo = hi
	}
	r.segs = segs

	nJobs := (len(segs) + 1) / 2
	workers := r.workers
	if workers > nJobs {
		workers = nJobs
	}
	if workers <= 1 {
		if r.rowQT2 == nil {
			r.rowQT2 = r.eng.getRow(r.sMin)
		}
		for k := 0; k < nJobs; k++ {
			r.recomputeJob(k, need, hot, l, excl, s, lmp, r.corr, r.rowQT[:s], r.rowQT2[:s])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				corr := r.corr.Clone()
				defer corr.Release()
				buf1, buf2 := r.eng.getRow(s), r.eng.getRow(s)
				defer r.eng.putRow(buf1)
				defer r.eng.putRow(buf2)
				for {
					k := int(next.Add(1)) - 1
					if k >= nJobs {
						return
					}
					r.recomputeJob(k, need, hot, l, excl, s, lmp, corr, buf1, buf2)
				}
			}()
		}
		wg.Wait()
	}

	// Hot-cache retention: serial, in need order. The store accepts every
	// row reserved above (and returns it to the pool when the run drains
	// the hot cache); a refused row would go straight back, so the
	// engine's get/put balance stays exact either way.
	for x, i := range need {
		if hot[x] == nil {
			continue
		}
		if !r.store.MakeHot(i, hot[x], l) {
			r.eng.putRow(hot[x])
		}
		hot[x] = nil // no stale row outlives the batch
	}
}

// recomputeJob is job k of a recompute batch: chains 2k and 2k+1 of r.segs
// walked from one paired transform of their heads (the last chain of an
// odd count takes a transform of its own).
func (r *run) recomputeJob(k int, need []int, hot [][]float64, l, excl, s int, lmp *profile.MatrixProfile, corr *fft.Correlator, buf1, buf2 []float64) {
	a := r.segs[2*k]
	h1 := need[a.lo]
	if 2*k+1 == len(r.segs) {
		r.walkChain(corr.Dots(r.t[h1:h1+l], buf1), a, need, hot, l, excl, s, lmp)
		return
	}
	b := r.segs[2*k+1]
	h2 := need[b.lo]
	row1, row2 := corr.DotsPair(r.t[h1:h1+l], r.t[h2:h2+l], buf1, buf2)
	r.walkChain(row1, a, need, hot, l, excl, s, lmp)
	r.walkChain(row2, b, need, hot, l, excl, s, lmp)
}

// walkChain walks chain c of the batch from its head row.
func (r *run) walkChain(row []float64, c recSeg, need []int, hot [][]float64, l, excl, s int, lmp *profile.MatrixProfile) {
	r.walkRows(row, need[c.lo], need[c.hi-1]+1, need[c.lo:c.hi], hot[c.lo:c.hi], l, excl, s, lmp)
}

// advanceAll runs the advance→certify pass over every anchor, partitioned
// into shards across Workers goroutines when the length is big enough.
// Each anchor reads shared immutable state (series, moments, stats) and
// writes only its own anchor state and its own slots of the per-anchor
// scratch arrays, so any shard schedule computes bit-identical results.
func (r *run) advanceAll(l, excl, s int) {
	workers := r.workers
	if workers > s/advanceShardRows {
		workers = s / advanceShardRows
	}
	if workers <= 1 {
		r.advanceShard(0, s, l, excl, s)
		r.entriesAt = l
		return
	}
	// More shards than workers evens out load skew (hot anchors cluster);
	// the shard grid is fixed by s alone, assignment order is irrelevant.
	shards := r.store.ShardsInto(s, workers*4, r.shards)
	r.shards = shards
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(shards) {
					return
				}
				r.advanceShard(shards[k].Lo, shards[k].Hi, l, excl, s)
			}
		}()
	}
	wg.Wait()
	r.entriesAt = l
}

// advanceShard advances anchors [lo, hi) to length l: hot anchors resolve
// exactly from their cached row; the rest advance their retained entries —
// one fused multiply-add per intervening length, so entries catch up
// across lengths the planner resolved incrementally or skipped — and
// compare their best exact distance against the lower bound covering
// every unretained candidate (certification).
func (r *run) advanceShard(lo, hi, l, excl, s int) {
	fl := float64(l)
	from := r.entriesAt + 1 // entries currently hold QT at length entriesAt
	for i := lo; i < hi; i++ {
		a := r.store.At(i)
		r.cert[i] = false
		r.dists[i] = math.Inf(1)
		r.indexes[i] = -1

		// Hot anchors resolve exactly with one advance-and-scan pass.
		if row, cur, ok := r.store.HotRow(i); ok {
			r.advanceAndScanHot(i, l, excl, s, row, cur)
			continue
		}

		muA, sdA := r.means[i], r.stds[i]
		switch {
		case a.Degenerate:
			// Constant anchor at seed time: no bound exists; always
			// resolved by recompute when within τ.
			r.maxLBs[i] = 0
		case a.NextQ2 < 0:
			// Every candidate is retained: nothing unseen to bound.
			r.maxLBs[i] = math.Inf(1)
		default:
			terms := lb.NewAnchorTerms(r.st, i, int(a.Base), l-int(a.Base))
			r.maxLBs[i] = terms.Bound(math.Sqrt(a.NextQ2))
		}
		if a.Degenerate {
			continue
		}

		minDist := math.Inf(1)
		minIdx := -1
		for e := range a.Entries {
			ent := &a.Entries[e]
			j := int(ent.J)
			if j >= s {
				continue // candidate no longer long enough
			}
			// All pending length steps in one fused pass (the per-length
			// lb.Entry.Advance loop, carried through every step at once).
			ent.QT = kernels.AdvanceDot(ent.QT, r.t, i, j, from-1, l)
			if j > i-excl && j < i+excl {
				continue // grown exclusion zone swallowed it
			}
			d := series.DistFromDot(ent.QT, fl, muA, sdA, r.means[j], r.stds[j])
			if d < minDist {
				minDist, minIdx = d, j
			}
		}
		// Record the best retained pair unconditionally: it is a true
		// distance either way, exact iff certified.
		r.dists[i] = minDist
		r.indexes[i] = minIdx
		if minDist <= r.maxLBs[i] {
			r.cert[i] = true
		}
	}
}

// advanceAndScanHot advances anchor i's cached dot-product row from length
// cur to length l (every pending length step carried through each cell in
// one fused kernels.ExtendRow pass) and scans it for the exact profile
// value — certification without FFT work.
func (r *run) advanceAndScanHot(i, l, excl, s int, row []float64, cur int) {
	fl := float64(l)
	kernels.ExtendRow(row, r.t, i, cur, l)
	r.store.SetHotLen(i, l)

	means, stds, invs := r.means, r.stds, r.invStds
	muA, invA := means[i], invs[i]
	if invA == 0 {
		best, bestJ := math.Inf(1), -1
		for j := 0; j < s; j++ {
			if j > i-excl && j < i+excl {
				continue
			}
			d := series.DistFromDot(row[j], fl, muA, 0, means[j], stds[j])
			if d < best {
				best, bestJ = d, j
			}
		}
		r.dists[i], r.indexes[i], r.cert[i] = best, bestJ, true
		return
	}
	e1, j2 := exclSplit(i, excl, s)
	bestCorr, bestJ := kernels.ArgmaxCorr(row, means, invs, e1, j2, s, 1/fl, muA, invA, math.Inf(-1), -1)
	if bestJ >= 0 {
		if bestCorr > 1 {
			bestCorr = 1
		} else if bestCorr < -1 {
			bestCorr = -1
		}
		r.dists[i] = math.Sqrt(2 * fl * (1 - bestCorr))
		r.indexes[i] = bestJ
	}
	r.cert[i] = true
}

// fullRecompute runs the STOMP row scan at length l, reseeding every
// anchor, and returns the exact matrix profile.
func (r *run) fullRecompute(l int) (*profile.MatrixProfile, error) {
	return r.seedAll(l)
}
