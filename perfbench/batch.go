package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/profile"
)

// workloadFunc runs one workload, filling rep; tr is nil on untraced runs.
type workloadFunc func(o options, rep *report, tr *Tracer) error

var workloads = map[string]workloadFunc{
	"pruned":     func(o options, rep *report, tr *Tracer) error { return runBatch(o, rep, tr, prunedSpec) },
	"exhaustive": func(o options, rep *report, tr *Tracer) error { return runBatch(o, rep, tr, exhaustiveSpec) },
	"serve":      runServe,
}

func workloadNames() []string { return []string{"pruned", "exhaustive", "serve"} }

// sizes is the geometry of every workload; fullSize is the benchmark,
// smokeSize a tiny copy for the tests.
type sizes struct {
	BatchN, LMin, LMax int
	// Serve: series length, series per cycle of the request mix, groups
	// of such series uploaded (cycle c draws on group c mod ServeGroups),
	// the range of lmin drawn per request and the number of lengths per
	// request.
	ServeN, ServePool, ServeGroups, ServeLMinLo, ServeLMinHi, ServeLengths int
	// Stream job: length range, window cap, chunk size and the number of
	// chunks generated (the client stops early when time is up).
	StreamLMin, StreamLMax, WindowCap, Chunk, StreamChunks int
	// Repetitions: timed set-up batches per run and set-ups per batch
	// (setup_s is the median batch's time per set-up), service start-ups
	// per serve run, OpenWAL + Recover timings after a serve session, and
	// stomp.ComputeParallel replays per dataset in a traced run.
	SetupReps, SetupBatch, SessionReps, RecoverReps, StompReps int
}

var fullSize = sizes{
	BatchN: 20000, LMin: 64, LMax: 83,
	ServeN: 5000, ServePool: 4, ServeGroups: 2, ServeLMinLo: 40, ServeLMinHi: 72, ServeLengths: 20,
	StreamLMin: 32, StreamLMax: 47, WindowCap: 1024, Chunk: 64, StreamChunks: 2000,
	SetupReps: 11, SetupBatch: 8, SessionReps: 11, RecoverReps: 5, StompReps: 3,
}

var smokeSize = sizes{
	BatchN: 1200, LMin: 16, LMax: 21,
	ServeN: 600, ServePool: 2, ServeGroups: 2, ServeLMinLo: 16, ServeLMinHi: 24, ServeLengths: 4,
	StreamLMin: 16, StreamLMax: 19, WindowCap: 256, Chunk: 32, StreamChunks: 400,
	SetupReps: 2, SetupBatch: 2, SessionReps: 2, RecoverReps: 2, StompReps: 1,
}

// batchSpec is a batch workload: one Discover per dataset per pass.
type batchSpec struct {
	datasets []string
	discords int
}

// prunedSpec is the paper's algorithm: pairs only, so every length after
// the seed runs the pruned advance/certify pass. astro leaves about 2.5×
// more anchors uncertified than ecg, so recompute cost is exercised too.
// Two draws of each (different seeds) per pass halve the data-dependent
// part of the pass time's spread across seeds.
var prunedSpec = batchSpec{datasets: []string{"ecg", "astro", "ecg", "astro"}}

// exhaustiveSpec asks for discords, which need every length's exact
// profile: each length runs the incremental diagonal pass from one FFT
// head seed and no anchor is ever recomputed.
var exhaustiveSpec = batchSpec{datasets: []string{"ecg", "ecg"}, discords: 5}

// drawSets is the number of draws of the workload's datasets. The warm-up
// pass runs set 0 and the timed passes alternate sets 1, 0, 1, … (in
// untraced and traced pairs on a traced run). A Discover's resident peak
// differs by up to half from one generated series to the next, so a run
// that rests on twice as many series reads steadier across seeds; every
// set computed twice is still checked for bit identity.
const drawSets = 2

// batchInputs generates the workload's series from the seed: drawSets sets
// of spec.datasets, set s at [s·D, (s+1)·D) for D datasets.
func batchInputs(o options, spec batchSpec) ([][]float64, error) {
	var out [][]float64
	for k := 0; k < drawSets*len(spec.datasets); k++ {
		name := spec.datasets[k%len(spec.datasets)]
		s, err := gen.Dataset(name, o.size.BatchN, o.seed*101+int64(k))
		if err != nil {
			return nil, err
		}
		out = append(out, s.Values)
	}
	return out, nil
}

func runBatch(o options, rep *report, tr *Tracer, spec batchSpec) error {
	sz := o.size
	opts := valmod.Options{Workers: 1, Discords: spec.discords}

	// Set-up: generate and validate the inputs, build the engine.
	var (
		inputs [][]float64
		eng    *valmod.Engine
	)
	setups, err := timeSetups(sz, func() error {
		var err error
		if inputs, err = batchInputs(o, spec); err != nil {
			return err
		}
		for _, x := range inputs {
			if err := valmod.Validate(x, sz.LMin, sz.LMax, opts); err != nil {
				return err
			}
		}
		eng = valmod.NewEngine(opts)
		return nil
	})
	if err != nil {
		return err
	}
	rep.e2e("setup_s", "", median(setups), len(setups), "median")

	// Warm-up: one untimed Discover on the first series of each dataset
	// fills the engine's pools, so no timed pass is a cold one. Each
	// series' first result is the one checked against the oracle and every
	// repeat.
	d := len(spec.datasets)
	var (
		first     = make([]*valmod.Result, len(inputs))
		firstHash = make([][32]byte, len(inputs))
		calls     = make([]int, len(inputs))
		warmed    = map[string]bool{}
	)
	for i, x := range inputs[:d] {
		if warmed[spec.datasets[i]] {
			continue
		}
		warmed[spec.datasets[i]] = true
		res, err := eng.Discover(x, sz.LMin, sz.LMax)
		rep.Attempted++
		calls[i]++
		if err != nil {
			rep.fail("%s: warm-up discover: %v", spec.datasets[i], err)
			continue
		}
		first[i], firstHash[i] = res, hashResult(res)
	}

	// Timed loop: whole passes over a set until time is up. A traced run
	// alternates untraced and traced passes (at least one of each) over
	// the same set, so the tracing overhead is measured on the same
	// process and data.
	var (
		walls, tracedWalls []float64
		jobs               []float64
		tracedPasses       []int
	)
	rss := startRSS()
	defer rss.close()
	var peaks []float64 // one per series, from its first untraced timed call
	peaked := make([]bool, len(inputs))
	step := 1
	if tr != nil {
		step = 2
	}
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < o.seconds || (tr != nil && len(tracedWalls) == 0); p++ {
		traced := tr != nil && p%2 == 1
		set := (p/step + 1) % drawSets
		ps := -1
		if traced {
			ps = tr.Start("bench.pass", -1, "")
		}
		var wall float64
		for i := set * d; i < (set+1)*d; i++ {
			x := inputs[i]
			// Each call starts from a collected heap returned to the OS,
			// so its resident-set peak is its own and not the garbage of
			// the call before it. The collection is outside every timing:
			// a pass's wall time is the sum of its calls'.
			debug.FreeOSMemory()
			rss.take()
			j0 := time.Now()
			var (
				res *valmod.Result
				err error
			)
			if traced {
				res, err = tracedDiscover(tr, eng, opts, x, sz.LMin, sz.LMax, ps)
			} else {
				res, err = eng.Discover(x, sz.LMin, sz.LMax)
			}
			took := time.Since(j0).Seconds()
			wall += took
			if !traced {
				jobs = append(jobs, took)
				if pk := rss.take(); !peaked[i] {
					peaked[i] = true
					peaks = append(peaks, pk)
				}
			}
			rep.Attempted++
			calls[i]++
			if err != nil {
				rep.fail("%s: discover: %v", spec.datasets[i%d], err)
				continue
			}
			h := hashResult(res)
			if first[i] == nil {
				first[i], firstHash[i] = res, h
			} else if h != firstHash[i] {
				rep.fail("%s: pass %d result not bit-identical to the first", spec.datasets[i%d], p)
			}
		}
		if traced {
			tr.Finish(ps, nil)
			tracedWalls = append(tracedWalls, wall)
			tracedPasses = append(tracedPasses, ps)
		} else {
			walls = append(walls, wall)
		}
	}

	rep.e2e("discover_s", "", median(walls), len(walls), "median")
	rep.e2e("job_p50_s", "s", median(jobs), len(jobs), "median")
	tail(rep, "job_p90_s", "s", jobs, 0.9)
	rep.e2e("jobs_per_s", "1/s", ratio(float64(len(jobs)), sum(walls)), len(jobs), "rate")
	// peak_rss_mb is the mean over the series of each one's first
	// untraced call. A call's peak differs from one generated series to
	// the next by up to half; the mean weighs every series, where a median
	// or a pass's maximum reads one or two of them. Later calls of a
	// series are left out: the results kept for the oracle grow the heap
	// as a run goes on, so they would make the figure depend on how many
	// passes fit in the run.
	rep.e2e("peak_rss_mb", "", sum(peaks)/float64(len(peaks)), len(peaks), "mean")

	// Correctness: every series' first result against the STOMP oracle
	// at one seed-chosen length (the first dataset also at ℓmin), plus the
	// top discord's length. A wrong first result makes every bit-identical
	// repeat wrong too.
	rng := rand.New(rand.NewSource(o.seed))
	for i, x := range inputs {
		if first[i] == nil {
			continue
		}
		lengths := []int{sz.LMin + rng.Intn(sz.LMax-sz.LMin+1)}
		if i == 0 {
			lengths = append(lengths, sz.LMin)
		}
		if bad := checkBatch(x, first[i], lengths, runtime.GOMAXPROCS(0)); len(bad) > 0 {
			rep.Failed += calls[i] - 1
			rep.fail("%s: %d oracle mismatches, first: %s", spec.datasets[i%d], len(bad), bad[0])
		}
	}

	if tr != nil {
		// The first traced pair runs set 1; the replays use its series.
		batchLayers(o, rep, tr, inputs[d:2*d], tracedPasses, median(walls), median(tracedWalls))
	}
	return nil
}

// timeSetups times SetupReps batches of SetupBatch back-to-back calls of
// setup and returns each batch's time per call. A set-up takes a few
// milliseconds, shorter than the spells in which a shared virtual CPU runs
// slow or fast, so one call alone lands in either spell; a batch averages
// over them. The heap is collected before each batch, outside the timing.
func timeSetups(sz sizes, setup func() error) ([]float64, error) {
	var out []float64
	for r := 0; r < sz.SetupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		for b := 0; b < sz.SetupBatch; b++ {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(t0).Seconds()/float64(sz.SetupBatch))
	}
	return out, nil
}

// tail records a tail percentile when the percentile rule allows it and
// otherwise notes why it is withheld.
func tail(rep *report, name, unit string, xs []float64, p float64) {
	v, ok := percentile(xs, p)
	if !ok {
		rep.note("%s withheld: %d samples, a p%.0f needs at least %d beyond it", name, len(xs), p*100, minBeyond)
		return
	}
	rep.e2e(name, unit, v, len(xs), fmt.Sprintf("p%.0f", p*100))
}

// tracedDiscover runs one Discover with spans around the call and around
// every Options.Progress callback. The interval between two callbacks is
// the engine's work on one length, named by the plan the length took:
// core.seed (ℓmin), core.length.pruned, core.length.full (incremental
// diagonal pass) or core.length.fallback (from-scratch whole-profile
// recompute). core.finish is the tail from the last callback to return.
func tracedDiscover(tr *Tracer, eng *valmod.Engine, opts valmod.Options, x []float64, lmin, lmax, parent int) (*valmod.Result, error) {
	sp := tr.Start("valmod.Engine.Discover", parent, "")
	alloc0 := heapAllocBytes()
	last, done := time.Now(), 0
	opts.Progress = func(p valmod.Progress) {
		now := time.Now()
		lr := p.Result
		name := "core.length.pruned"
		switch {
		case done == 0:
			name = "core.seed"
		case lr.FullRecompute && lr.Incremental:
			name = "core.length.full"
		case lr.FullRecompute:
			name = "core.length.fallback"
		}
		counts := map[string]int64{"recomputed": int64(lr.Recomputed), "certified": int64(lr.Certified)}
		if lr.Incremental {
			counts["diag_cells"] = diagCells(len(x), lr.Length)
		}
		tr.Add(name, sp, last, now, counts)
		done++
		last = time.Now()
		tr.Add("valmod.Options.Progress", sp, now, last, nil)
	}
	res, err := eng.WithOptions(opts).Discover(x, lmin, lmax)
	tr.Add("core.finish", sp, last, time.Now(), nil)
	tr.Finish(sp, map[string]int64{"alloc_bytes": int64(heapAllocBytes() - alloc0)})
	return res, err
}

// diagCells is the number of cells the diagonal pass visits at length l
// over n points: every diagonal outside the exclusion zone, the triangle
// d(d+1)/2 with d = s − excl.
func diagCells(n, l int) int64 {
	s := n - l + 1
	d := int64(s - profile.ExclusionZone(l, exclFactor))
	if d <= 0 {
		return 0
	}
	return d * (d + 1) / 2
}

// batchLayers derives the per-layer metrics of a batch workload from the
// traced passes and the layer replays. Core times are per pass (summed
// over the pass's datasets) and reported as the median over passes, so
// they add up against discover_s.
func batchLayers(o options, rep *report, tr *Tracer, inputs [][]float64, passes []int, untraced, traced float64) {
	replayLayers(o, tr, inputs)
	q := newSpanQuery(tr.Spans())
	var seed, pruned, full, recomputed, certified, fallback, cells, alloc []float64
	discovers := 0
	for _, ps := range passes {
		var c passCounts
		c.add(q, ps)
		seed = append(seed, c.seed)
		pruned = append(pruned, c.pruned)
		full = append(full, c.full)
		recomputed = append(recomputed, c.recomputed)
		certified = append(certified, c.certified)
		fallback = append(fallback, c.fallback)
		cells = append(cells, c.cells)
		for _, d := range q.within(ps, "valmod.Engine.Discover") {
			alloc = append(alloc, float64(d.Counts["alloc_bytes"])/1e6)
			discovers++
		}
	}
	n := len(passes)
	rep.layer("core.seed_s", median(seed), n, "median")
	rep.layer("core.pruned_lengths_s", median(pruned), n, "median")
	rep.layer("core.full_lengths_s", median(full), n, "median")
	rec, cert := median(recomputed), median(certified)
	rep.layer("core.recomputed_anchors", rec, n, "total")
	rep.layer("core.certified_frac", ratio(cert, cert+rec), n, "computed")
	rep.layer("core.fallback_lengths", median(fallback), n, "total")
	rep.layer("core.alloc_mb", median(alloc), discovers, "median")
	coreCommon(rep, q, median(seed), rec)
	diagCellsPerPass := median(cells)
	rep.layer("kernels.diag_cells", diagCellsPerPass, n, "computed")
	cellRates(rep, diagCellsPerPass, median(full))
	rep.layer("trace.overhead_frac", traced/untraced-1, n, "computed")
	split := median(seed) + median(pruned) + median(full)
	rep.note("split: core.seed_s + core.pruned_lengths_s + core.full_lengths_s = %.4g s, %.1f%% of the traced pass (%.4g s)",
		split, 100*split/traced, traced)
	for _, name := range []string{"stream.append_ms", "stream.snapshot_ms", "service.submit_ms", "service.cache_hit_ms",
		"service.cache_hit_frac", "service.recover_s", "service.append_overhead_ms", "wal.open_s", "wal.save_append_ms",
		"wal.save_submit_ms", "wal.save_outcome_ms", "wal.save_checkpoint_ms", "wal.checkpoint_mb", "wal.records"} {
		rep.layer(name, 0, 0, "n/a")
	}
}

// passCounts sums one traced pass's core spans.
type passCounts struct {
	seed, pruned, full, recomputed, certified, fallback, cells float64
}

func (c *passCounts) add(q spanQuery, root int) {
	for _, s := range q.within(root, "core.seed") {
		c.seed += s.Dur()
		c.recomputed += float64(s.Counts["recomputed"])
		c.certified += float64(s.Counts["certified"])
	}
	for _, s := range q.within(root, "core.length.pruned") {
		c.pruned += s.Dur()
		c.recomputed += float64(s.Counts["recomputed"])
		c.certified += float64(s.Counts["certified"])
	}
	for _, name := range []string{"core.length.full", "core.length.fallback"} {
		for _, s := range q.within(root, name) {
			c.full += s.Dur()
			c.recomputed += float64(s.Counts["recomputed"])
			c.certified += float64(s.Counts["certified"])
			c.cells += float64(s.Counts["diag_cells"])
			if name == "core.length.fallback" {
				c.fallback++
			}
		}
	}
}

// coreCommon records the replay-based layer metrics and the figures
// computed from them: seed overhead (seed time not explained by one STOMP
// profile) and the FFT recompute estimate.
func coreCommon(rep *report, q spanQuery, seed, recomputed float64) {
	profileS := 0.0
	for _, group := range groupByKey(q.named("replay.stomp.ComputeParallel")) {
		profileS += median(group)
	}
	rep.layer("stomp.profile_s", profileS, len(q.named("replay.stomp.ComputeParallel")), "replay")
	rep.layer("core.seed_overhead_s", seed-profileS, 0, "computed")
	dots := perUnit(q.named("replay.fft.Dots"), "calls") * 1e6
	rep.layer("fft.dots_us", dots, len(q.named("replay.fft.Dots")), "replay")
	// Uncertified anchors are recomputed two per transform (DotsPair).
	rep.layer("fft.recompute_est_s", recomputed*perUnit(q.named("replay.fft.DotsPair"), "anchors"), 0, "computed")
	rep.layer("stomp.head_extend_ms", perUnit(q.named("replay.stomp.ExtendDiagonalHead"), "calls")*1e3,
		len(q.named("replay.stomp.ExtendDiagonalHead")), "replay")
	for _, k := range []string{"rownext", "diagscan", "extendrow", "argmaxcorr"} {
		spans := q.named("replay.kernels." + k)
		rep.layer("kernels."+k+"_ns_cell", perUnit(spans, "cells")*1e9, len(spans), "replay")
	}
}

// cellRates records the diagonal pass's cell rate and nominal bandwidth.
func cellRates(rep *report, cells, fullSeconds float64) {
	rep.layer("kernels.diag_cells_per_s", ratio(cells, fullSeconds), 0, "computed")
	rep.layer("kernels.diag_gb_per_s", ratio(cells*diagBytesPerCell, fullSeconds)/1e9, 0, "computed")
}

// diagBytesPerCell is the nominal operand traffic of one diagonal-pass
// cell: four series values and four moments (8 B each), and the two
// endpoints' running winners (8 B correlation + 4 B index each). It is a
// computed figure, not a measured one.
const diagBytesPerCell = 4*8 + 4*8 + 2*(8+4)

// groupByKey groups span durations by Key.
func groupByKey(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Key] = append(out[s.Key], s.Dur())
	}
	return out
}

// perUnit is the median over spans of duration ÷ Counts[unit] seconds.
func perUnit(spans []Span, unit string) float64 {
	var xs []float64
	for _, s := range spans {
		if c := s.Counts[unit]; c > 0 {
			xs = append(xs, s.Dur()/float64(c))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
