package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded at a layer boundary by the
// benchmark's own code (nothing inside the program is instrumented).
// Times are nanoseconds since the tracer started. Parent is the ID of the
// span that caused this one, or -1. Key, when set, names the job or
// series the span acted on; spans recorded where the causing span is not
// known (the Store decorator runs on the server's goroutines) are linked
// at the end of the run to the innermost span with the same Key that
// encloses them. Self is derived at the end: the duration minus the part
// of it covered by child spans.
type Span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Run    string           `json:"run"`
	Name   string           `json:"name"`
	Key    string           `json:"key,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Self   int64            `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer { return &Tracer{run: run, t0: time.Now()} }

func (t *Tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// Start opens a span now and returns its ID (-1 on a nil tracer).
func (t *Tracer) Start(name string, parent int, key string) int {
	if t == nil {
		return -1
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Key: key, Start: now, End: -1})
	return id
}

// Finish closes span id now, attaching counts (may be nil).
func (t *Tracer) Finish(id int, counts map[string]int64) {
	if t == nil || id < 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
}

// SetKey names the job or series of span id once the caller learns it
// (a submission's job ID arrives with the response).
func (t *Tracer) SetKey(id int, key string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Key = key
}

// Add records a span whose bounds were taken by the caller, such as the
// interval between two Progress callbacks.
func (t *Tracer) Add(name string, parent int, start, end time.Time, counts map[string]int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: t.ns(start), End: t.ns(end), Counts: counts})
	return id
}

// Spans finalizes the trace — links keyed orphans to their enclosing
// span, derives self times — and returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	linkKeyed(out)
	deriveSelf(out)
	return out
}

// linkKeyed gives each parentless keyed span the shortest other span with
// the same key whose interval encloses it.
func linkKeyed(spans []Span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		if s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 || s.Key == "" {
			continue
		}
		best, bestDur := -1, int64(-1)
		for _, j := range byKey[s.Key] {
			c := spans[j]
			if j == i || c.Start > s.Start || c.End < s.End {
				continue
			}
			if d := c.End - c.Start; best < 0 || d < bestDur {
				best, bestDur = c.ID, d
			}
		}
		s.Parent = best
	}
}

// deriveSelf sets each span's self time: its duration minus the union of
// its children's intervals clipped to it (children may overlap when they
// ran concurrently).
func deriveSelf(spans []Span) {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := map[int][][2]int64{}
	for _, s := range spans {
		if _, ok := index[s.Parent]; ok {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeTrace writes the run's spans and host record as one JSON file.
func writeTrace(path string, h host, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []Span `json:"spans"`
	}{h, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// spanQuery answers the per-layer questions over a finalized trace.
type spanQuery struct {
	spans []Span
	byID  map[int]int
}

func newSpanQuery(spans []Span) spanQuery {
	q := spanQuery{spans: spans, byID: make(map[int]int, len(spans))}
	for i, s := range spans {
		q.byID[s.ID] = i
	}
	return q
}

// named returns the spans called name.
func (q spanQuery) named(name string) []Span {
	var out []Span
	for _, s := range q.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the durations, in seconds, of the spans called name.
func (q spanQuery) durs(name string) []float64 {
	var out []float64
	for _, s := range q.named(name) {
		out = append(out, s.Dur())
	}
	return out
}

// under reports whether span s descends from the span with ID root.
func (q spanQuery) under(s Span, root int) bool {
	for p := s.Parent; p >= 0; {
		if p == root {
			return true
		}
		i, ok := q.byID[p]
		if !ok {
			return false
		}
		p = q.spans[i].Parent
	}
	return false
}

// within returns the spans called name that descend from root.
func (q spanQuery) within(root int, name string) []Span {
	var out []Span
	for _, s := range q.named(name) {
		if q.under(s, root) {
			out = append(out, s)
		}
	}
	return out
}
