// Command valmod-bench is the repository's same-host benchmark. One
// invocation runs one named workload for a fixed time on inputs generated
// from a seed, checks every output against an independent oracle, and
// prints each metric by name, unit and sample count; the last line of
// standard output is a JSON summary. Run it from the repository root
// through perfbench/run.sh, which builds it from source first:
//
//	bash perfbench/run.sh --workload pruned --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same workload runs traced: spans recorded around the
// benchmark's own calls into each layer yield the per-layer metrics, and
// the spans are written to .bench_build/traces when the run ends.
//
//	bash perfbench/run.sh compare A.json B.json
//
// compares two saved results (.bench_build/results) and refuses when they
// come from different hosts. README.md in this directory describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0; they
// must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"discover_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1 (0 where
// the workload does not enter the layer); they must match BENCHMARK.json's
// per_layer list.
var perLayer = []metricDef{
	{"core.seed_s", "s"},
	{"core.pruned_lengths_s", "s"},
	{"core.full_lengths_s", "s"},
	{"core.seed_overhead_s", "s"},
	{"core.recomputed_anchors", "count"},
	{"core.certified_frac", "frac"},
	{"core.fallback_lengths", "count"},
	{"core.alloc_mb", "MB"},
	{"fft.dots_us", "us"},
	{"fft.recompute_est_s", "s"},
	{"stomp.profile_s", "s"},
	{"stomp.head_extend_ms", "ms"},
	{"kernels.rownext_ns_cell", "ns/cell"},
	{"kernels.diagscan_ns_cell", "ns/cell"},
	{"kernels.extendrow_ns_cell", "ns/cell"},
	{"kernels.argmaxcorr_ns_cell", "ns/cell"},
	{"kernels.diag_cells", "cells"},
	{"kernels.diag_cells_per_s", "cells/s"},
	{"kernels.diag_gb_per_s", "GB/s"},
	{"stream.append_ms", "ms"},
	{"stream.snapshot_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.cache_hit_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.recover_s", "s"},
	{"service.append_overhead_ms", "ms"},
	{"wal.open_s", "s"},
	{"wal.save_append_ms", "ms"},
	{"wal.save_submit_ms", "ms"},
	{"wal.save_outcome_ms", "ms"},
	{"wal.save_checkpoint_ms", "ms"},
	{"wal.checkpoint_mb", "MB"},
	{"wal.records", "count"},
	{"trace.overhead_frac", "frac"},
}

// metric is one reported figure. Samples is the number of measurements a
// timing summarizes (0 for counts); How says how the value was obtained:
// "median", "mean", "midmean" (interquartile mean), "p90", "rate", "total", "replay" (timed directly at
// the workload's geometry), "computed" (derived from other figures) or
// "n/a" (the workload does not enter the layer; value 0).
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	How     string  `json:"how"`
}

// report is everything one run measured.
type report struct {
	Host      host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	// Notes are unmet reporting conditions, such as a tail percentile
	// withheld for want of samples.
	Notes []string `json:"notes,omitempty"`
}

func newReport(h host, workload string, seed int64, seconds float64, trace bool) *report {
	return &report{Host: h, Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
}

func unitOf(defs []metricDef, name, fallback string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return fallback
}

// e2e records an end-to-end figure; unit is used for names outside the
// gated list (workload-specific extras).
func (r *report) e2e(name, unit string, v float64, samples int, how string) {
	r.EndToEnd[name] = metric{name, unitOf(endToEnd, name, unit), v, samples, how}
}

func (r *report) layer(name string, v float64, samples int, how string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, how = 0, "n/a"
	}
	r.PerLayer[name] = metric{name, unitOf(perLayer, name, ""), v, samples, how}
}

// fail counts one failed or wrong operation and records why.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the last line: the gated metrics of the run's mode. A
// gated metric that is missing or not finite makes the run incorrect.
func (r *report) summarize() summary {
	defs, got := endToEnd, r.EndToEnd
	if r.Trace {
		defs, got = perLayer, r.PerLayer
	}
	s := summary{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryMetric{}}
	bad := false
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Problems = append(r.Problems, "metric "+d.name+" was not measured")
			bad = true
			m.Value = 0
		}
		s.Metrics[d.name] = summaryMetric{m.Value, d.unit}
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		bad = true
	}
	s.Correct = !bad && r.Failed == 0 && len(r.Problems) == 0
	return s
}

// print writes the human-readable report lines.
func (r *report) print() {
	hb, _ := json.Marshal(r.Host)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	failedFrac := ratio(float64(r.Failed), float64(r.Attempted))
	fmt.Printf("e2e   %-28s %14.6g %-8s (%d failed / %d attempted)\n", "failed_frac", failedFrac, "frac", r.Failed, r.Attempted)
	printGroup("e2e  ", r.EndToEnd)
	if r.Trace {
		printGroup("layer", r.PerLayer)
	}
	for _, n := range r.Notes {
		fmt.Printf("note  %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Printf("FAIL  %s\n", p)
	}
}

func printGroup(tag string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("%s %-28s %14.6g %-8s (%s, n=%d)\n", tag, m.Name, m.Value, m.Unit, m.How, m.Samples)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	root     string // checkout root: outputs go under .bench_build
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("valmod-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "valmod-bench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "valmod-bench:", err)
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize, root: root}
	rep, spans, err := execute(o, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "valmod-bench:", err)
		return 1
	}
	return finish(o, rep, spans)
}

// execute runs one workload and returns its report and (traced) spans.
func execute(o options, run workloadFunc) (*report, []Span, error) {
	h := hostRecord()
	rep := newReport(h, o.workload, o.seed, o.seconds, o.trace)
	var tr *Tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	if err := run(o, rep, tr); err != nil {
		return nil, nil, err
	}
	return rep, tr.Spans(), nil
}

// finish prints the report, saves it (and the trace), and returns the
// exit code: 1 when any output was wrong.
func finish(o options, rep *report, spans []Span) int {
	sum := rep.summarize()
	out := filepath.Join(o.root, ".bench_build")
	tag := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, b2i(o.trace))
	if err := saveJSON(filepath.Join(out, "results", tag+".json"), rep); err != nil {
		rep.note("result not saved: %v", err)
	}
	if o.trace {
		if err := writeTrace(filepath.Join(out, "traces", tag+".json"), rep.Host, spans); err != nil {
			rep.note("trace not saved: %v", err)
		}
	}
	rep.print()
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "valmod-bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !sum.Correct {
		return 1
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func saveJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// compareMain prints two saved results side by side. Results measured on
// different hosts are refused.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: valmod-bench compare A.json B.json")
		return 2
	}
	var a, b report
	for i, r := range []*report{&a, &b} {
		data, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(data, r)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "valmod-bench:", err)
			return 2
		}
	}
	if !a.Host.sameMachine(b.Host) {
		fmt.Fprintf(os.Stderr, "valmod-bench: refusing cross-host comparison:\n  A %+v\n  B %+v\n", a.Host, b.Host)
		return 3
	}
	fmt.Printf("A %s %s seed %d rev %s\nB %s %s seed %d rev %s\n",
		args[0], a.Workload, a.Seed, a.Host.Revision, args[1], b.Workload, b.Seed, b.Host.Revision)
	for _, group := range []struct{ am, bm map[string]metric }{{a.EndToEnd, b.EndToEnd}, {a.PerLayer, b.PerLayer}} {
		names := make([]string, 0, len(group.am))
		for n := range group.am {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			bm, ok := group.bm[n]
			if !ok {
				continue
			}
			am := group.am[n]
			fmt.Printf("%-28s %14.6g %14.6g %-8s B/A %8.4f\n", n, am.Value, bm.Value, am.Unit, ratio(bm.Value, am.Value))
		}
	}
	return 0
}
