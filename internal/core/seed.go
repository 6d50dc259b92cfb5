package core

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/seriesmining/valmod/internal/core/anchors"
	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/lb"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// seedBlockRows is the fixed height of the block grid the seed scan is
// partitioned on. The grid depends only on the anchor count — never on the
// worker count: each block seeds its first dot-product row with one FFT and
// streams the rest via the STOMP recurrence, so a block computes the same
// values whether blocks run serially or concurrently. Workers changes
// wall-clock time, never output.
const seedBlockRows = 512

// seedAll computes the exact matrix profile at length l and reseeds every
// anchor's partial profile with base l. Rows are independent; blocks of the
// fixed grid are handed to up to Workers goroutines, each with a cloned
// correlator and a pooled row buffer.
func (r *run) seedAll(l int) (*profile.MatrixProfile, error) {
	n := len(r.t)
	s := n - l + 1
	excl := profile.ExclusionZone(l, r.cfg.ExclusionFactor)
	mp := profile.New(l, excl, s)
	if err := stomp.ValidateLength(n, l); err != nil {
		return nil, err
	}
	r.momentsAt(l)
	nBlocks := (s + seedBlockRows - 1) / seedBlockRows
	workers := r.workers
	if workers > nBlocks {
		workers = nBlocks
	}
	if workers <= 1 {
		for b := 0; b < nBlocks; b++ {
			if err := r.ctx.Err(); err != nil {
				return nil, err
			}
			lo, hi := blockBounds(b, s)
			r.processRunWith(lo, hi-lo, l, excl, s, mp, r.corr, r.rowQT[:s])
		}
		r.markSeeded(l)
		return mp, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			corr := r.corr.Clone()
			defer corr.Release()
			row := r.eng.getRow(s)
			defer r.eng.putRow(row)
			for {
				// Bail between blocks on cancellation; the partial profile
				// is discarded with the run, so early exit cannot leak into
				// any returned result.
				if r.ctx.Err() != nil {
					return
				}
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				lo, hi := blockBounds(b, s)
				r.processRunWith(lo, hi-lo, l, excl, s, mp, corr, row)
			}
		}()
	}
	wg.Wait()
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	r.markSeeded(l)
	return mp, nil
}

// markSeeded records that the full row scan just reseeded every anchor's
// partial profile at base length l (no-op on profileOnly runs, whose scans
// skip the reseed bookkeeping entirely): the pruned machinery is live and
// its retained entries hold dot products at l.
func (r *run) markSeeded(l int) {
	if r.profileOnly {
		return
	}
	r.seeded = true
	r.entriesAt = l
}

// blockBounds returns the anchor range [lo, hi) of seed block b.
func blockBounds(b, s int) (lo, hi int) {
	lo = b * seedBlockRows
	hi = lo + seedBlockRows
	if hi > s {
		hi = s
	}
	return lo, hi
}

// processRunWith resolves the contiguous anchors [i0, i0+count) exactly at
// length l: one FFT seeds the dot-product row of i0, and walkRows streams
// the block as a chain in which every anchor is needed. It writes exact
// values into mp. The correlator and row buffer are caller-owned, enabling
// concurrent block scans; the moment cache must already be at l.
func (r *run) processRunWith(i0, count, l, excl, s int, mp *profile.MatrixProfile, corr *fft.Correlator, rowBuf []float64) {
	row := corr.Dots(r.t[i0:i0+l], rowBuf)
	r.walkRows(row, i0, i0+count, nil, nil, l, excl, s, mp)
}

// walkRows streams dot-product rows from anchor lo, whose row the caller
// has filled, through anchor hi−1: each following row costs O(s) via the
// STOMP recurrence (kernels.RowNext) plus the O(l) row[0] dot product.
// need selects the rows scanned (scanRow: exact profile minimum and
// partial-profile reseed): nil scans every row, as a seed block does;
// otherwise only need's anchors (ascending, need[0] = lo, all below hi)
// are scanned, the rows between them are bridged, and a scanned anchor
// need[x] whose hot[x] is non-nil has its row copied there for the
// hot-row cache.
func (r *run) walkRows(row []float64, lo, hi int, need []int, hot [][]float64, l, excl, s int, mp *profile.MatrixProfile) {
	t := r.t
	x := 0
	for i := lo; i < hi; i++ {
		if i > lo {
			kernels.RowNext(row, t, i, l, s)
			row[0] = series.Dot(t[i:i+l], t[0:l])
		}
		if need == nil {
			r.scanRow(i, l, excl, s, row, mp)
			continue
		}
		if need[x] != i {
			continue // bridged row
		}
		r.scanRow(i, l, excl, s, row, mp)
		if hot[x] != nil {
			copy(hot[x], row)
		}
		x++
	}
}

// exclSplit maps anchor i's exclusion interval (j excluded when
// i−excl < j < i+excl) onto the two included branch-free ranges
// [0, e1) and [j2, s) the kernels take, clipped at the series edges.
func exclSplit(i, excl, s int) (e1, j2 int) {
	e1 = i - excl + 1
	if e1 < 0 {
		e1 = 0
	}
	j2 = i + excl
	if j2 > s {
		j2 = s
	}
	return e1, j2
}

// scanRow is the per-row pass: exact nearest neighbor of anchor i at
// length l (outside the exclusion zone) plus the partial-profile reseed
// (top-p candidates by q̃²). The moment cache must be filled for l. Each
// anchor touches only its own state, so rows may be scanned concurrently.
// On a profileOnly run the reseed feeds nothing (the advance→certify pass
// never runs), so the row takes the lean profile-only scan instead — both
// paths share kernels.ArgmaxCorr, so the profile values are bit-for-bit
// the same on either.
func (r *run) scanRow(i, l, excl, s int, row []float64, mp *profile.MatrixProfile) {
	if r.profileOnly {
		r.scanRowProfileOnly(i, l, excl, s, row, mp)
		return
	}
	p := r.cfg.P
	means, invs := r.means, r.invStds
	fl := float64(l)
	sumA := r.st.Sum(i, l)
	muA := means[i]
	invA := invs[i]

	a := r.store.BeginReseed(i, p, l)

	// Degenerate anchor: the fused correlation math is undefined; fall back
	// to the convention-aware scalar path for this (rare) row.
	if invA == 0 {
		r.scanRowDegenerate(i, l, excl, s, row, mp)
		a.Degenerate = true
		return
	}

	e1, j2 := exclSplit(i, excl, s)
	st := reseedState{heapMinQ2: math.Inf(-1), bestRejQ2: -1}
	r.reseedRange(a, row, 0, e1, p, sumA, &st)
	r.reseedRange(a, row, j2, s, p, sumA, &st)
	if len(a.Entries) > 0 && len(a.Entries) < p {
		lb.Heapify(a.Entries)
	}
	a.NextQ2 = st.bestRejQ2

	bestCorr, bestJ := kernels.ArgmaxCorr(row, means, invs, e1, j2, s, 1/fl, muA, invA, math.Inf(-1), -1)
	if bestJ >= 0 {
		if bestCorr > 1 {
			bestCorr = 1
		} else if bestCorr < -1 {
			bestCorr = -1
		}
		mp.Update(i, math.Sqrt(2*fl*(1-bestCorr)), bestJ)
	}
}

// reseedState carries the top-p selection thresholds across the two
// included j-ranges of one row's reseed.
type reseedState struct {
	heapMinQ2 float64 // q̃² of the heap root once the heap is full
	bestRejQ2 float64 // best q̃² among rejected/evicted candidates
}

// reseedRange runs the top-p-by-q̃² selection of the partial-profile
// reseed over the included candidate range [j0, j1) — the same selection
// the pre-kernel fused loop performed, minus the per-cell exclusion test.
// The fill phase (heap not yet full) is peeled off the front; after it,
// kernels.ReseedScan sweeps to the next cell that beats the heap root
// (folding every cell it passes into the best rejected q̃²), and only
// those hits — rare once the heap is warm — run the scalar heap update.
// Candidates are visited in the identical ascending order.
func (r *run) reseedRange(a *anchors.State, row []float64, j0, j1, p int, sumA float64, st *reseedState) {
	if j1 <= j0 {
		return
	}
	means, invs := r.means, r.invStds
	j := j0
	for ; j < j1 && len(a.Entries) < p; j++ {
		qtj := row[j]
		q := (qtj - means[j]*sumA) * invs[j] // q̃ (0 for degenerate candidate)
		a.Entries = append(a.Entries, lb.Entry{J: int32(j), QT: qtj, QTilde: q})
	}
	if len(a.Entries) < p {
		return // range exhausted while filling; heapMinQ2 stays unset
	}
	if math.IsInf(st.heapMinQ2, -1) {
		// The p-th entry was just appended: order the heap once.
		lb.Heapify(a.Entries)
		q0 := a.Entries[0].QTilde
		st.heapMinQ2 = q0 * q0
	}
	heapMin, bestRej := st.heapMinQ2, st.bestRejQ2
	for {
		j, bestRej = kernels.ReseedScan(row[:j1], means, invs, j, sumA, heapMin, bestRej)
		if j >= j1 {
			break
		}
		if heapMin > bestRej {
			bestRej = heapMin // evicted root joins the unkept set
		}
		qtj := row[j]
		a.Entries[0] = lb.Entry{J: int32(j), QT: qtj, QTilde: (qtj - means[j]*sumA) * invs[j]}
		lb.SiftDown(a.Entries, 0)
		q0 := a.Entries[0].QTilde
		heapMin = q0 * q0
		j++
	}
	st.heapMinQ2, st.bestRejQ2 = heapMin, bestRej
}

// scanRowDegenerate resolves a σ=0 anchor's row with the convention-aware
// scalar distance (the correlation kernels cannot express it): the shared
// fallback of every row-scan path.
func (r *run) scanRowDegenerate(i, l, excl, s int, row []float64, mp *profile.MatrixProfile) {
	fl := float64(l)
	muA := r.means[i]
	for j := 0; j < s; j++ {
		if j > i-excl && j < i+excl {
			continue
		}
		d := series.DistFromDot(row[j], fl, muA, 0, r.means[j], r.stds[j])
		mp.Update(i, d, j)
	}
}

// scanRowProfileOnly is scanRow minus the partial-profile bookkeeping:
// just the exact nearest neighbor of anchor i from its dot-product row,
// through the same kernels.ArgmaxCorr — shared arithmetic, bit-identical
// profiles.
func (r *run) scanRowProfileOnly(i, l, excl, s int, row []float64, mp *profile.MatrixProfile) {
	means, invs := r.means, r.invStds
	fl := float64(l)
	muA := means[i]
	invA := invs[i]
	if invA == 0 {
		r.scanRowDegenerate(i, l, excl, s, row, mp)
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
		mp.Update(i, math.Sqrt(2*fl*(1-bestCorr)), bestJ)
	}
}
