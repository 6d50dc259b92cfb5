package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/seriesmining/valmod/internal/service"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // exactly ten beyond rank 90
		{99, 0.9, 90, false}, // rank ⌈89.1⌉ = 90 leaves nine beyond
		{19, 0.5, 10, false}, // nine beyond the median
		{20, 0.5, 10, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // rank ⌈989.01⌉ = 990 leaves nine beyond
		{110, 0.9, 99, true},    // 0.9·110 is 99.00000000000001 in float64
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	// Eight samples: the lowest two and highest two are dropped.
	if m := midMean([]float64{100, 1, 3, 5, 4, 6, 2, -50}); m != 3.5 {
		t.Errorf("midMean = %g, want 3.5", m)
	}
	if m := midMean([]float64{7}); m != 7 {
		t.Errorf("midMean of one sample = %g, want 7", m)
	}
}

// spanAt adds a span with bounds in milliseconds after the tracer start.
func spanAt(tr *Tracer, name string, parent int, from, to int) int {
	ms := func(v int) time.Time { return tr.t0.Add(time.Duration(v) * time.Millisecond) }
	return tr.Add(name, parent, ms(from), ms(to), nil)
}

func TestSelfTime(t *testing.T) {
	tr := newTracer("test")
	root := spanAt(tr, "root", -1, 0, 100)
	spanAt(tr, "a", root, 10, 30)
	spanAt(tr, "b", root, 20, 50)   // overlaps a: union [10,50]
	spanAt(tr, "c", root, 80, 120)  // runs past the parent: clipped to [80,100]
	d := spanAt(tr, "d", -1, 0, 10) // unrelated root
	leaf := spanAt(tr, "leaf", d, 2, 4)
	keyedParent := spanAt(tr, "job", -1, 200, 300)
	tr.SetKey(keyedParent, "j1")
	wide := spanAt(tr, "job.outer", -1, 150, 400)
	tr.SetKey(wide, "j1")
	orphan := spanAt(tr, "wal.SaveSubmit", -1, 210, 220)
	tr.SetKey(orphan, "j1")

	spans := tr.Spans()
	self := map[int]int64{}
	parent := map[int]int{}
	for _, s := range spans {
		self[s.ID] = s.Self / int64(time.Millisecond)
		parent[s.ID] = s.Parent
	}
	// root: 100 − |[10,50] ∪ [80,100]| = 100 − 60.
	for id, want := range map[int]int64{root: 40, d: 8, leaf: 2, keyedParent: 90, wide: 150, orphan: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %d ms, want %d", id, self[id], want)
		}
	}
	// The orphan links to the innermost enclosing span with its key; that
	// span in turn links to the wider one.
	if parent[orphan] != keyedParent || parent[keyedParent] != wide {
		t.Errorf("keyed links: orphan→%d, job→%d; want %d, %d", parent[orphan], parent[keyedParent], keyedParent, wide)
	}
}

// fakeStore returns a preset error from every method and records what the
// checkpoint call was handed.
type fakeStore struct {
	err  error
	blob []byte
}

func (f *fakeStore) SaveSeries(string, []float64) error          { return f.err }
func (f *fakeStore) SaveSubmit(string, service.JobRequest) error { return f.err }
func (f *fakeStore) SaveAppend(string, []float64) error          { return f.err }
func (f *fakeStore) SaveCheckpoint(_ string, b []byte) error {
	f.blob = b
	return f.err
}
func (f *fakeStore) SaveOutcome(string, service.State, string, *service.Result) error { return f.err }

func TestTimedStorePassThrough(t *testing.T) {
	injected := errors.New("injected: disk full")
	for _, want := range []error{nil, injected} {
		inner := &fakeStore{err: want}
		tr := newTracer("test")
		s := timedStore{inner: inner, tr: tr}
		blob := []byte("checkpoint-frame")
		calls := []error{
			s.SaveSeries("s1", []float64{1, 2}),
			s.SaveSubmit("j1", service.JobRequest{}),
			s.SaveAppend("j1", []float64{3}),
			s.SaveCheckpoint("j1", blob),
			s.SaveOutcome("j1", service.StateDone, "", nil),
		}
		for i, got := range calls {
			if got != want {
				t.Errorf("call %d returned %v, want %v unchanged", i, got, want)
			}
		}
		if &inner.blob[0] != &blob[0] {
			t.Error("checkpoint blob was copied before reaching the store")
		}
		spans := tr.Spans()
		if len(spans) != len(calls) {
			t.Fatalf("%d spans, want %d", len(spans), len(calls))
		}
		for _, sp := range spans {
			if (sp.Counts["errors"] == 1) != (want != nil) {
				t.Errorf("span %s errors=%d with inner error %v", sp.Name, sp.Counts["errors"], want)
			}
			if sp.Name == "wal.SaveCheckpoint" && sp.Counts["bytes"] != int64(len(blob)) {
				t.Errorf("checkpoint span bytes = %d, want %d", sp.Counts["bytes"], len(blob))
			}
		}
	}

	// Through a real WAL: a closed log's error comes back as the WAL's own.
	w, err := service.OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := timedStore{inner: w, tr: newTracer("test")}
	if err := s.SaveSeries("s1", []float64{1}); err != nil {
		t.Fatalf("save through decorator: %v", err)
	}
	w.Close()
	direct := w.SaveAppend("j1", []float64{1})
	got := s.SaveAppend("j1", []float64{1})
	if direct == nil || !errors.Is(got, direct) {
		t.Errorf("closed WAL: decorator returned %v, WAL returns %v", got, direct)
	}
}

func TestSmokeWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 0.3, trace: trace, size: smokeSize, root: t.TempDir()}
			rep, _, err := execute(o, workloads[name])
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			sum := rep.summarize()
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, sum.Correct, sum.Attempted, sum.Failed, rep.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(sum.Metrics), len(defs))
			}
			if !trace {
				for _, d := range endToEnd {
					if sum.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, want > 0", name, d.name, sum.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the metric lists the program prints in
// step with the benchmark definition at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for i, w := range def.Workloads {
		if names := workloadNames(); i >= len(names) || names[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q not in program order %v", i, w.Name, names)
		}
	}
}

func TestCompareRefusesCrossHost(t *testing.T) {
	dir := t.TempDir()
	save := func(name, cpu string) string {
		h := hostRecord()
		h.CPU = cpu
		r := newReport(h, "pruned", 1, 1, false)
		r.e2e("discover_s", "", 1, 1, "median")
		p := filepath.Join(dir, name)
		if err := saveJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := save("a.json", "cpu-x"), save("b.json", "cpu-x"), save("c.json", "cpu-y")
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("same host: exit %d, want 0", code)
	}
	if code := compareMain([]string{a, c}); code != 3 {
		t.Errorf("cross host: exit %d, want 3", code)
	}
}
