package main

import (
	"math"
	"strconv"
	"time"

	"github.com/seriesmining/valmod/internal/fft"
	"github.com/seriesmining/valmod/internal/kernels"
	"github.com/seriesmining/valmod/internal/profile"
	"github.com/seriesmining/valmod/internal/series"
	"github.com/seriesmining/valmod/internal/stomp"
)

// replayBatches is the number of timed batches per replayed entry point;
// each batch repeats the call until it lasts at least replayMinBatch.
const (
	replayBatches  = 9
	replayMinBatch = 10 * time.Millisecond
)

// replay times f directly: replayBatches spans named name, each covering
// k back-to-back calls, with counts[unit] = k·perCall so the metric is a
// time per call or per cell. The first call only calibrates k.
func replay(tr *Tracer, name, unit string, perCall int64, f func()) {
	t0 := time.Now()
	f()
	k := int(replayMinBatch/max(time.Since(t0), time.Microsecond)) + 1
	for b := 0; b < replayBatches; b++ {
		start := time.Now()
		for i := 0; i < k; i++ {
			f()
		}
		tr.Add(name, -1, start, time.Now(), map[string]int64{unit: int64(k) * perCall})
	}
}

// replayLayers times the fft, stomp and kernels entry points directly at
// the workload's geometry: n points of each input, lengths at ℓmin. The
// kernels run on the kernels.Active() tier, exactly as the engine does.
func replayLayers(o options, tr *Tracer, inputs [][]float64) {
	l := o.size.LMin
	for i, x := range inputs {
		for r := 0; r < o.size.StompReps; r++ {
			start := time.Now()
			_, _ = stomp.ComputeParallel(x, l, exclFactor, 1)
			tr.SetKey(tr.Add("replay.stomp.ComputeParallel", -1, start, time.Now(), nil), strconv.Itoa(i))
		}
	}
	t := inputs[0]
	n := len(t)
	s := n - l + 1
	excl := profile.ExclusionZone(l, exclFactor)

	corr := fft.NewCorrelator(t, l)
	defer corr.Release()
	dots := make([]float64, s)
	q := t[n/3 : n/3+l]
	replay(tr, "replay.fft.Dots", "calls", 1, func() { dots = corr.Dots(q, dots) })
	// The engine recomputes uncertified anchors two per transform.
	q2, dots2 := t[2*n/3:2*n/3+l], make([]float64, s)
	replay(tr, "replay.fft.DotsPair", "anchors", 2, func() { dots, dots2 = corr.DotsPair(q, q2, dots, dots2) })

	head, err := stomp.DiagonalHead(t, l)
	if err != nil {
		return
	}
	ext := append([]float64(nil), head...)
	replay(tr, "replay.stomp.ExtendDiagonalHead", "calls", 1, func() { _, _ = stomp.ExtendDiagonalHead(ext, t, l, l+1) })

	means, stds := series.SlidingMeanStd(t, l)
	invs := make([]float64, len(stds))
	for j, sd := range stds {
		if sd > 0 {
			invs[j] = 1 / sd
		}
	}
	row := append([]float64(nil), head...)
	replay(tr, "replay.kernels.rownext", "cells", int64(s-1), func() { kernels.RowNext(row, t, 1, l, s) })
	replay(tr, "replay.kernels.argmaxcorr", "cells", int64(s), func() {
		_, _ = kernels.ArgmaxCorr(row, means, invs, 0, 0, s, 1/float64(l), means[0], invs[0], math.Inf(-1), -1)
	})
	replay(tr, "replay.kernels.extendrow", "cells", int64(n-l), func() { kernels.ExtendRow(row, t, 0, l, l+1) })

	k0 := excl
	k1 := min(k0+64, s)
	var cells int64
	for k := k0; k < k1; k++ {
		cells += int64(s - k)
	}
	dc := make([]float64, s)
	di := make([]int32, s)
	for j := range dc {
		dc[j], di[j] = math.Inf(-1), -1
	}
	replay(tr, "replay.kernels.diagscan", "cells", cells, func() { kernels.DiagScan(t, head, means, invs, k0, k1, l, s, dc, di) })
}
