// Package kernels holds the engine's arithmetic hot loops — the STOMP row
// recurrence, the branch-free argmax-correlation scans, the fused
// multi-length dot-product extensions, the streaming column scan, the
// diagonal pass of the incremental cross-length engine, and the threshold
// scan of the partial-profile reseed — consolidated from the per-file
// copies that used to live in internal/core, internal/stomp and the
// hot-row path.
//
// Every routine here is paired with a naive reference implementation in
// ref.go that spells out the defining loop, and TestKernelParity asserts
// every dispatch tier is bit-identical to it (including σ=0 degenerate
// windows and exclusion zones clipped at the series edges). Because every
// plan of the engine — pruned, from-scratch full, incremental, streaming —
// calls the same kernels, arithmetic identity across plans is enforced by
// construction: there is exactly one expression for each recurrence and
// one for the division-free correlation compare of each path.
//
// # Where the pruned plan spends them
//
// The pruned plan's recompute batches walk chains of needed anchors: one
// FFT head row per chain (two heads per packed overlap-save correlation),
// then RowNext for every following row — bridged rows between needed
// anchors included — with ArgmaxCorr and the reseed's ReseedScan at each
// needed anchor. A head costs Θ(n log B) for a block size B of a few
// times ℓmax, about 40 RowNext rows at ℓmax=83; chains bridge gaps of up
// to 128 rows (a sweep of the gap limit was flat within noise), so nearly
// every recomputed row costs O(s) on these kernels.
//
// # Dispatch tiers
//
// Each kernel dispatches to one of up to three implementations, selected
// once at process start (see dispatch.go; VALMOD_KERNELS forces a tier):
//
//   - generic — the portable 4-way-unrolled loops (the PR 5 kernels), the
//     shape the references certify first.
//   - ilp — restructured portable variants: wider diagonal interleave
//     (8 chains), interleaved per-cell accumulation chains in the fused
//     extensions, and the argmax scans split into a branch-light
//     correlation sweep plus a rare winner re-scan.
//   - avx2 — amd64 assembly (runtime CPUID-detected), four float64 lanes
//     per vector. The assembly never uses FMA: fused multiply-adds round
//     differently from the separate multiply and add the portable tiers
//     perform, and bit-identity across tiers is a hard contract.
//
// Every tier must produce bit-identical outputs. For pure arithmetic
// (RowNext, ExtendRow) that holds lane-by-lane because each output cell's
// operations run in the same order in every tier. For the winner scans
// (ArgmaxCorr, ColScan, DiagScan) it holds because winner selection is a
// maximum under the strict total order (correlation descending, neighbor
// offset ascending on exact ties), which is associative and commutative —
// any tier may reorder candidate visits, but every reordering reduces to
// the same argmax. AdvanceDot is the one kernel with a single serial
// floating-point accumulation chain and no slack to reorder, so every
// tier shares the one scalar loop. ReseedScan holds because its stop cell
// is the first hit in ascending order and its running maximum is exact in
// any visiting order; its ilp tier shares the generic loop.
//
// # Optimization rules the kernels follow
//
//   - Exclusion zones are handled by splitting each per-cell scan into the
//     two branch-free j-ranges [0, lo] and [hi, s) instead of testing
//     every cell against the zone.
//   - Loops are unrolled with slice bounds hoisted into sub-slices, so the
//     compiler can eliminate per-cell bounds checks.
//   - The diagonal pass interleaves independent diagonals per sweep: each
//     diagonal's dot product is a serial dependency chain, so interleaving
//     independent chains is what actually feeds the multiply units.
//   - Cross-length extensions carry all pending length steps through each
//     cell in one pass (ascending step order per cell, so the float adds
//     associate exactly as the one-pass-per-length loops they replace).
package kernels

// RowNext advances a STOMP dot-product row in place from anchor i−1 to
// anchor i at length l: row[j] = row[j−1] + t[i+l−1]·t[j+l−1] −
// t[i−1]·t[j−1] for j = s−1 … 1, reading row[j−1] before it is
// overwritten (descending order). row[0] is left untouched — the caller
// owns the j=0 boundary (an O(l) dot product or a symmetry lookup).
func RowNext(row, t []float64, i, l, s int) {
	switch active {
	case AVX2:
		rowNextAVX2(row, t, i, l, s)
	case ILP:
		rowNextILP(row, t, i, l, s)
	default:
		rowNextGeneric(row, t, i, l, s)
	}
}

// ArgmaxCorr returns the argmax over j ∈ [0, e1) ∪ [j2, s) of the
// division-free correlation
//
//	corr(j) = (row[j]·invFl − muA·means[j]) · invA · invs[j]
//
// — the ONE correlation expression of the engine, shared bit-for-bit with
// DiagScan (invFl = 1/ℓ, computed once per scan) — under strict
// improvement (the first maximum in ascending j wins — exactly the tie
// behavior of the scalar scan it replaces; an incoming bestCorr/bestJ seed
// survives exact ties). A degenerate candidate (invs[j] = 0) contributes
// corr 0, the √(2l)-distance convention. bestCorr/bestJ seed the running
// maximum (pass −Inf, −1 to start fresh). The two half-open ranges are the
// branch-free split of the exclusion zone: callers pass e1 = min(lo+1, s)
// clamped at 0 and j2 = max(hi, 0) clamped at s.
func ArgmaxCorr(row, means, invs []float64, e1, j2, s int, invFl, muA, invA float64, bestCorr float64, bestJ int) (float64, int) {
	switch active {
	case AVX2:
		bestCorr, bestJ = argmaxCorrRangeAVX2(row, means, invs, 0, e1, invFl, muA, invA, bestCorr, bestJ)
		return argmaxCorrRangeAVX2(row, means, invs, j2, s, invFl, muA, invA, bestCorr, bestJ)
	case ILP:
		bestCorr, bestJ = argmaxCorrRangeILP(row, means, invs, 0, e1, invFl, muA, invA, bestCorr, bestJ)
		return argmaxCorrRangeILP(row, means, invs, j2, s, invFl, muA, invA, bestCorr, bestJ)
	default:
		bestCorr, bestJ = argmaxCorrRange(row, means, invs, 0, e1, invFl, muA, invA, bestCorr, bestJ)
		return argmaxCorrRange(row, means, invs, j2, s, invFl, muA, invA, bestCorr, bestJ)
	}
}

// ExtendRow advances anchor i's dot-product row across every pending
// length step in one pass: cell j accumulates t[i+p]·t[j+p] for
// p ∈ [cur, min(l, n−j)) in ascending p order — bit-identical to running
// l−cur one-step passes (each of which updates j < n−p), because each
// cell's additions happen in the same order; only the pass structure is
// fused. Cells at j ≥ n−cur receive no step and are not touched. row must
// have at least n−cur valid cells when cur < l.
func ExtendRow(row, t []float64, i, cur, l int) {
	switch active {
	case AVX2:
		extendRowAVX2(row, t, i, cur, l)
	case ILP:
		extendRowILP(row, t, i, cur, l)
	default:
		extendRowGeneric(row, t, i, cur, l)
	}
}

// AdvanceDot adds Σ t[i+p]·t[j+p] for p ∈ [p0, p1) to qt, in ascending p
// order — the fused form of per-length lb.Entry.Advance calls, carrying a
// retained entry's dot product across every pending length step at once.
//
// AdvanceDot is one serial floating-point accumulation chain: any
// reassociation (lane splitting, pairwise trees) changes the rounding, so
// every dispatch tier shares this scalar loop. The callers amortize it —
// one call per retained entry, ranges of a few steps — so it is never the
// pass bottleneck the vectorized kernels are.
func AdvanceDot(qt float64, t []float64, i, j, p0, p1 int) float64 {
	if p1 <= p0 {
		return qt
	}
	a := t[i+p0 : i+p1]
	b := t[j+p0 : j+p1]
	b = b[:len(a)] // same width by construction; the fact feeds BCE
	for x, av := range a {
		qt += av * b[x]
	}
	return qt
}

// ReseedScan is the threshold scan of the partial-profile reseed: over
// cells j ∈ [j0, len(row)) in ascending order it computes
//
//	q̃ = (row[j] − means[j]·sumA) · invs[j]
//
// (in exactly that order, never fused) and stops at the first cell whose
// q̃² > heapMin, returning its index together with the running maximum of
// q̃² over the cells before it, seeded by bestRej. With no such cell it
// returns len(row) and the maximum over the whole range. The caller runs
// the top-p heap update at the returned cell and re-enters one cell later.
// A degenerate candidate (invs[j] = 0) has q̃ = 0. Every tier returns the
// same (index, maximum) bit for bit: the stop cell is the first in
// ascending order, and a maximum is exact in any visiting order. means
// and invs must cover [j0, len(row)).
func ReseedScan(row, means, invs []float64, j0 int, sumA, heapMin, bestRej float64) (int, float64) {
	if active == AVX2 {
		return reseedScanAVX2(row, means, invs, j0, sumA, heapMin, bestRej)
	}
	return reseedScanGeneric(row, means, invs, j0, sumA, heapMin, bestRej)
}

// ColScan is the streaming right-append pass: window j of length l has
// just been appended and col[i] = QT(i, j) holds its dot products against
// every earlier window (the column AppendColumn produced). The scan visits
// the non-trivial candidates i ∈ [0, iEnd) (iEnd = j − excl + 1 clamped at
// 0), computes the engine's ONE division-free correlation
//
//	c = (col[i]·invFl − means[i]·muJ) · invs[i] · invJ
//
// (anchor-side factors first — the same association DiagScan uses for a
// cell (i, j) with i < j), improves slot i with candidate (c, j) under the
// strict total order (corr descending, neighbor ascending on exact ties),
// and returns the running best candidate for slot j itself — seeded by
// bestCorr/bestIdx (pass −Inf, −1 to start fresh), scanned in ascending i
// under strict improvement, so exact ties keep the smallest neighbor
// exactly as the total order demands. A degenerate endpoint (invs or invJ
// zero) contributes correlation 0, the √(2l)-distance convention.
func ColScan(col, means, invs []float64, iEnd int, invFl, muJ, invJ float64, corr []float64, idx []int32, j int32, bestCorr float64, bestIdx int32) (float64, int32) {
	switch active {
	case AVX2:
		return colScanAVX2(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
	case ILP:
		return colScanILP(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
	default:
		return colScanGeneric(col, means, invs, iEnd, invFl, muJ, invJ, corr, idx, j, bestCorr, bestIdx)
	}
}

// DiagScan streams diagonals [k0, k1) of the length-l self-join: each
// diagonal starts from its head cell head[k] = QT(0, k), advances with the
// in-length recurrence QT(i,j) = QT(i−1,j−1) + t[i+l−1]·t[j+l−1] −
// t[i−1]·t[j−1], and every cell's division-free correlation
//
//	c = (qt·invFl − means[i]·means[j]) · invs[i] · invs[j]
//
// updates the running best of both endpoints in corr/idx under the strict
// total order (corr descending, neighbor offset ascending on exact ties).
// Independent diagonals are interleaved per sweep — independent recurrence
// chains — which the total order renders bit-identical to the
// one-diagonal reference regardless of the interleave width each dispatch
// tier picks. The moment slices must be at length l; s = len(t) − l + 1.
func DiagScan(t, head, means, invs []float64, k0, k1, l, s int, corr []float64, idx []int32) {
	switch active {
	case AVX2:
		diagScanAVX2(t, head, means, invs, k0, k1, l, s, corr, idx)
	case ILP:
		diagScanILP(t, head, means, invs, k0, k1, l, s, corr, idx)
	default:
		diagScanGeneric(t, head, means, invs, k0, k1, l, s, corr, idx)
	}
}

// update applies one candidate (c, j) to slot i of corr/idx under the
// total order. It is the single definition of the winner rule.
func update(corr []float64, idx []int32, i int, c float64, j int32) {
	if c > corr[i] || (c == corr[i] && j < idx[i]) {
		corr[i], idx[i] = c, j
	}
}
