package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	valmod "github.com/seriesmining/valmod"
	"github.com/seriesmining/valmod/internal/gen"
	"github.com/seriesmining/valmod/internal/service"
)

// serveInputs is everything the serve workload's clients send, generated
// from the seed: the uploaded series pool and the stream's points. The
// pool holds ServeGroups groups of ServePool series, half ecg and half
// astro; a run spreads over several groups so that its figures depend less
// on the data of any one draw.
type serveInputs struct {
	pool   [][]float64
	stream []float64
}

func makeServeInputs(o options) (serveInputs, error) {
	sz := o.size
	var in serveInputs
	for i := 0; i < sz.ServePool*sz.ServeGroups; i++ {
		s, err := gen.Dataset([]string{"ecg", "astro"}[i%2], sz.ServeN, o.seed*101+10+int64(i))
		if err != nil {
			return in, err
		}
		in.pool = append(in.pool, s.Values)
	}
	in.stream = gen.ECG(sz.StreamChunks*sz.Chunk, o.seed*101+99).Values
	return in, nil
}

// serveReq is one discovery request of the mix: a pooled series, an lmin
// (the range spans ServeLengths lengths) and the query kind.
type serveReq struct{ series, lmin, discords int }

// reqGen draws the discovery client's requests. The mix has a fixed
// composition so that its cost varies little with the seed: every fifth
// request repeats a seeded earlier one (a cache hit); new requests take
// the series of the cycle's group in turn, every third asks for discords,
// and lmin walks a seeded permutation of the allowed values.
type reqGen struct {
	rng        *rand.Rand
	sz         sizes
	lmins      []int
	sent, news int
	seen       []serveReq
	set        map[serveReq]bool
}

func newReqGen(seed int64, sz sizes) *reqGen {
	g := &reqGen{rng: rand.New(rand.NewSource(seed)), sz: sz, set: map[serveReq]bool{}}
	for _, k := range g.rng.Perm(sz.ServeLMinHi - sz.ServeLMinLo + 1) {
		g.lmins = append(g.lmins, sz.ServeLMinLo+k)
	}
	return g
}

func (g *reqGen) next() serveReq {
	g.sent++
	if g.sent%5 == 0 {
		return g.seen[g.rng.Intn(len(g.seen))]
	}
	for try := 0; try < 1000; try++ {
		k := g.news
		g.news++
		group := k / (mixCycle(g.sz) * 4 / 5) % g.sz.ServeGroups
		r := serveReq{series: group*g.sz.ServePool + k%g.sz.ServePool, lmin: g.lmins[k%len(g.lmins)]}
		if k%3 == 2 {
			r.discords = 5
		}
		if !g.set[r] {
			g.set[r] = true
			g.seen = append(g.seen, r)
			return r
		}
	}
	return g.seen[g.rng.Intn(len(g.seen))] // request space used up (tiny sizes only)
}

// mixCycle is the number of requests after which the mix's composition
// repeats: every fifth request a cache hit, and among the new ones every
// series of a group and every third a discords query, in whole turns.
func mixCycle(sz sizes) int {
	news := 12 // four new requests per five, every third with discords
	for news%sz.ServePool != 0 {
		news += 12
	}
	return news * 5 / 4
}

func (r serveReq) job(ids []string, sz sizes) service.JobRequest {
	return service.JobRequest{SeriesID: ids[r.series], LMin: r.lmin, LMax: r.lmin + sz.ServeLengths - 1, Discords: r.discords, Workers: 1}
}

// session is one in-process service: a Manager whose Store is a WAL in a
// scratch directory (behind the timing decorator when traced), served by
// service.NewServer on a loopback listener.
type session struct {
	dir    string
	wal    *service.WAL
	m      *service.Manager
	srv    *httptest.Server
	client *http.Client
	ids    []string // uploaded series handles, in pool order
}

// openSession starts a service in dir.
func openSession(dir string, tr *Tracer) (*session, error) {
	w, err := service.OpenWAL(dir)
	if err != nil {
		return nil, err
	}
	var store service.Store = w
	if tr != nil {
		store = timedStore{inner: w, tr: tr}
	}
	m := service.NewManager(service.Config{Store: store})
	if err := m.Recover(w.Recovered()); err != nil {
		w.Close()
		return nil, err
	}
	return &session{dir: dir, wal: w, m: m, srv: httptest.NewServer(service.NewServer(m)), client: &http.Client{}}, nil
}

// upload sends the series pool, keeping the handles in pool order.
func (s *session) upload(pool [][]float64, tr *Tracer) error {
	for _, values := range pool {
		sp := tr.Start("http.POST /v1/series", -1, "")
		var info service.SeriesInfo
		err := s.call("POST", "/v1/series", map[string][]float64{"values": values}, http.StatusCreated, &info)
		tr.Finish(sp, nil)
		tr.SetKey(sp, info.ID)
		if err != nil {
			return err
		}
		s.ids = append(s.ids, info.ID)
	}
	return nil
}

// close stops the listener, drains the manager and closes the log.
func (s *session) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.m.Shutdown()
	s.wal.Close()
}

// call sends one JSON request and decodes the JSON answer into out,
// failing on any status other than want.
func (s *session) call(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.srv.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, out)
}

// wireStatus is a job status with the result kept as the exact bytes the
// server sent, for byte comparison with a library run.
type wireStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// follow reads a job's SSE stream until its terminal event and returns
// the status that event carries.
func (s *session) follow(id string) (wireStatus, error) {
	var st wireStatus
	resp, err := s.client.Get(s.srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return st, fmt.Errorf("events %s ended before a terminal event: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && service.State(event).Terminal():
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			return st, err
		}
	}
}

// served is one completed discovery job as the client saw it.
type served struct {
	req     serveReq
	latency float64
	peakMB  float64 // resident-set peak while the job ran
	status  wireStatus
	err     error
}

// sessionStats is what one serve session measured.
type sessionStats struct {
	jobs        []served
	jobSeconds  float64 // discovery client's active time
	appends     []float64
	appendErrs  []error
	points      int
	streamSecs  float64
	streamFinal wireStatus
	streamErr   error
	window      []float64 // the points the stream should retain at the end
}

// drive runs the two closed-loop clients against s for d: a discovery
// client submitting the seeded request mix and following each job to its
// terminal event, and a stream client appending fixed-size chunks to a
// sliding-window stream job, which it closes at the end.
//
// Each job starts from a collected heap returned to the OS, so its
// resident-set peak is its own. Without that the resident set is the
// high-water mark of earlier jobs' garbage, released by the runtime at its
// own pace, and a run's figure depends on when the largest collections
// happened to fall. The collection is outside each job's latency and
// jobs_per_s; the stream client's appends run alongside it.
func drive(o options, s *session, in serveInputs, d time.Duration, tr *Tracer) sessionStats {
	sz := o.size
	var st sessionStats
	deadline := time.Now().Add(d)
	rss := startRSS()
	defer rss.close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g := newReqGen(o.seed, sz)
		var active time.Duration
		for time.Now().Before(deadline) || len(st.jobs) < mixCycle(sz) {
			debug.FreeOSMemory()
			rss.take()
			t0 := time.Now()
			j := s.discover(g.next(), sz, tr)
			active += time.Since(t0)
			j.peakMB = rss.take()
			st.jobs = append(st.jobs, j)
		}
		st.jobSeconds = active.Seconds()
	}()
	go func() {
		defer wg.Done()
		st.streamErr = s.streamClient(o, in.stream, deadline, tr, &st)
	}()
	wg.Wait()
	return st
}

// discover submits one request and follows it to its terminal event.
func (s *session) discover(r serveReq, sz sizes, tr *Tracer) served {
	out := served{req: r}
	job := tr.Start("serve.job", -1, "")
	t0 := time.Now()
	sub := tr.Start("http.POST /v1/jobs", job, "")
	var acc wireStatus
	out.err = s.call("POST", "/v1/jobs", r.job(s.ids, sz), http.StatusAccepted, &acc)
	tr.Finish(sub, nil)
	if out.err == nil {
		tr.SetKey(job, acc.ID)
		tr.SetKey(sub, acc.ID)
		ev := tr.Start("http.GET /v1/jobs/{id}/events", job, acc.ID)
		out.status, out.err = s.follow(acc.ID)
		tr.Finish(ev, nil)
	}
	out.latency = time.Since(t0).Seconds()
	tr.Finish(job, map[string]int64{"cache_hit": int64(b2i(acc.CacheHit || out.status.CacheHit))})
	return out
}

// streamClient opens a stream job, appends chunks until the deadline (or
// the generated points run out), then closes the job and keeps the final
// status.
func (s *session) streamClient(o options, points []float64, deadline time.Time, tr *Tracer, st *sessionStats) error {
	sz := o.size
	var acc wireStatus
	req := service.JobRequest{Kind: service.KindStream, LMin: sz.StreamLMin, LMax: sz.StreamLMax, WindowCap: sz.WindowCap, Workers: 1}
	if err := s.call("POST", "/v1/jobs", req, http.StatusAccepted, &acc); err != nil {
		return err
	}
	t0 := time.Now()
	fed := 0
	for c := 0; (c+1)*sz.Chunk <= len(points) && time.Now().Before(deadline); c++ {
		chunk := points[c*sz.Chunk : (c+1)*sz.Chunk]
		sp := tr.Start("serve.append", -1, acc.ID)
		a0 := time.Now()
		var ack wireStatus
		err := s.call("POST", "/v1/jobs/"+acc.ID+"/append", map[string][]float64{"values": chunk}, http.StatusOK, &ack)
		st.appends = append(st.appends, time.Since(a0).Seconds())
		tr.Finish(sp, nil)
		if err != nil {
			st.appendErrs = append(st.appendErrs, err)
			continue
		}
		fed += len(chunk)
	}
	st.streamSecs = time.Since(t0).Seconds()
	st.points = fed
	st.window = points[max(0, fed-sz.WindowCap):fed]
	return s.call("DELETE", "/v1/jobs/"+acc.ID, nil, http.StatusOK, &st.streamFinal)
}

// recovery times OpenWAL and Manager.Recover over a closed session's
// directory, reps times.
func recovery(dir string, reps int, tr *Tracer) (open, rec []float64, err error) {
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		w, err := service.OpenWAL(dir)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		m := service.NewManager(service.Config{Store: w})
		err = m.Recover(w.Recovered())
		t2 := time.Now()
		m.Shutdown()
		w.Close()
		if err != nil {
			return nil, nil, err
		}
		tr.Add("service.OpenWAL", -1, t0, t1, nil)
		tr.Add("service.Manager.Recover", -1, t1, t2, nil)
		open, rec = append(open, t1.Sub(t0).Seconds()), append(rec, t2.Sub(t1).Seconds())
	}
	return open, rec, nil
}

// dirMB is the total size of the files under dir in MB.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1e6
}

// sessionRun is one measured session with its recovery timings.
type sessionRun struct {
	stats      sessionStats
	open, rec  []float64
	walMB      float64
	setupTimes []float64
}

// writeWALHeader creates an empty log in dir. Opening a new log writes and
// fsyncs its header record; doing that before set-up is timed keeps
// setup_s from being the latency of one fsync.
func writeWALHeader(dir string) error {
	w, err := service.OpenWAL(dir)
	if err != nil {
		return err
	}
	return w.Close()
}

// runSession sets the service up setups times (keeping the last) over a
// log that holds only its header, drives it for d, shuts it down and times
// recovery over its log.
func runSession(o options, in serveInputs, d time.Duration, setups int, tr *Tracer) (sessionRun, error) {
	var out sessionRun
	scratch := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o777); err != nil {
		return out, err
	}
	var s *session
	for r := 0; r < setups; r++ {
		if s != nil {
			s.close()
			os.RemoveAll(s.dir)
		}
		dir, err := os.MkdirTemp(scratch, "serve-")
		if err == nil {
			err = writeWALHeader(dir)
		}
		if err != nil {
			os.RemoveAll(dir)
			return out, err
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = openSession(dir, tr); err != nil {
			os.RemoveAll(dir)
			return out, err
		}
		out.setupTimes = append(out.setupTimes, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(s.dir)
	// Uploading the pool is the clients' first step, not set-up: it is
	// bounded by one fsync per series, which would make setup_s a disk
	// measurement.
	if err := s.upload(in.pool, tr); err != nil {
		s.close()
		return out, err
	}
	out.stats = drive(o, s, in, d, tr)
	s.close()
	out.walMB = dirMB(s.dir)
	var err error
	out.open, out.rec, err = recovery(s.dir, o.size.RecoverReps, tr)
	return out, err
}

func runServe(o options, rep *report, tr *Tracer) error {
	sz := o.size
	var in serveInputs
	genTimes, err := timeSetups(sz, func() error {
		var err error
		in, err = makeServeInputs(o)
		return err
	})
	if err != nil {
		return err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if tr != nil {
		d /= 2 // a traced run measures an untraced and a traced session
	}
	plain, err := runSession(o, in, d, sz.SessionReps, nil)
	if err != nil {
		return err
	}
	// Set-up is input generation plus bringing the service up (log
	// opened, manager recovered, listener started).
	rep.e2e("setup_s", "", median(genTimes)+median(plain.setupTimes), len(plain.setupTimes), "median")
	serveEndToEnd(rep, sz, plain)
	lib := checkServe(o, rep, in, plain.stats, nil)

	if tr != nil {
		traced, err := runSession(o, in, d, 1, tr)
		if err != nil {
			return err
		}
		checkServe(o, rep, in, traced.stats, lib)
		serveLayers(o, rep, tr, in, plain, traced, lib)
	}
	return nil
}

// serveEndToEnd records one session's end-to-end metrics.
func serveEndToEnd(rep *report, sz sizes, r sessionRun) {
	st := r.stats
	var all []float64
	for _, j := range st.jobs {
		all = append(all, j.latency)
	}
	// discover_s is the wall time of one cycle of the mix, the serve
	// workload's discovery set; the median over the session's complete
	// cycles. A single job's latency depends on its kind (astro pairs jobs
	// take two to three times as long as the others), so a median over jobs
	// moves with where the run happens to stop in the cycle.
	var cycles, peaks []float64
	n := mixCycle(sz)
	for i := 0; i+n <= len(st.jobs); i += n {
		cycles = append(cycles, sum(all[i:i+n]))
		for _, j := range st.jobs[i : i+n] {
			peaks = append(peaks, j.peakMB)
		}
	}
	rep.e2e("discover_s", "", median(cycles), len(cycles), "median")
	rep.e2e("job_p50_s", "s", median(all), len(all), "median")
	tail(rep, "job_p90_s", "s", all, 0.9)
	rep.e2e("jobs_per_s", "1/s", ratio(float64(len(all)), st.jobSeconds), len(all), "rate")
	ms := make([]float64, len(st.appends))
	for i, a := range st.appends {
		ms[i] = a * 1e3
	}
	rep.e2e("append_p50_ms", "ms", median(ms), len(ms), "median")
	tail(rep, "append_p90_ms", "ms", ms, 0.9)
	rep.e2e("stream_points_per_s", "1/s", ratio(float64(st.points), st.streamSecs), len(ms), "rate")
	recov := make([]float64, len(r.open))
	for i := range r.open {
		recov[i] = r.open[i] + r.rec[i]
	}
	rep.e2e("recovery_s", "s", median(recov), len(recov), "median")
	rep.e2e("wal_mb", "MB", r.walMB, 1, "total")
	// peak_rss_mb is the interquartile mean of the jobs' resident-set
	// peaks over the complete cycles, so the mix of job kinds behind it is
	// the same in every run. The peaks cluster by job kind (astro pairs jobs
	// reach two to four times the others), and a median reads whichever
	// job happens to sit between the clusters.
	rep.e2e("peak_rss_mb", "", midMean(peaks), len(peaks), "midmean")
}

// checkServe checks one session's outputs: every job done with a result
// byte-identical to a library Discover of the same request, every append
// acknowledged, and the stream's final snapshot equivalent to a batch
// Discover over the final window. lib caches library results by request
// (computed here, two at a time, outside any timed region) and is
// returned for reuse. Traced runs wrap each library Discover in core
// spans under an "oracle.set" span.
func checkServe(o options, rep *report, in serveInputs, st sessionStats, lib map[serveReq][]byte) map[serveReq][]byte {
	sz := o.size
	if lib == nil {
		lib = map[serveReq][]byte{}
	}
	var todo []serveReq
	for _, j := range st.jobs {
		if _, ok := lib[j.req]; !ok {
			lib[j.req] = nil
			todo = append(todo, j.req)
		}
	}
	libDiscover(o, in, todo, lib, nil, -1)
	for _, j := range st.jobs {
		rep.Attempted++
		switch {
		case j.err != nil:
			rep.fail("job %+v: %v", j.req, j.err)
		case j.status.State != string(service.StateDone):
			rep.fail("job %s %+v ended %s: %s", j.status.ID, j.req, j.status.State, j.status.Error)
		case !bytes.Equal(j.status.Result, lib[j.req]):
			rep.fail("job %s %+v: result differs from library Discover", j.status.ID, j.req)
		}
	}
	rep.Attempted += len(st.appends)
	for _, err := range st.appendErrs {
		rep.fail("append: %v", err)
	}
	rep.Attempted++
	if err := checkStream(sz, st); err != nil {
		rep.fail("stream: %v", err)
	}
	return lib
}

// libDiscover fills lib[r] for every r in todo with the wire encoding of
// a library Discover of the same request, two requests at a time. With a
// tracer the calls run traced under parent.
func libDiscover(o options, in serveInputs, todo []serveReq, lib map[serveReq][]byte, tr *Tracer, parent int) {
	sz := o.size
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan serveReq)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := valmod.NewEngine(valmod.Options{Workers: 1})
			for r := range work {
				opts := valmod.Options{Workers: 1, Discords: r.discords}
				x, lmax := in.pool[r.series], r.lmin+sz.ServeLengths-1
				var res *valmod.Result
				var err error
				if tr != nil {
					res, err = tracedDiscover(tr, eng, opts, x, r.lmin, lmax, parent)
				} else {
					res, err = eng.WithOptions(opts).Discover(x, r.lmin, lmax)
				}
				var b []byte
				if err == nil {
					b, err = json.Marshal(service.ResultOf(res))
				}
				if err != nil {
					b = []byte("library error: " + err.Error())
				}
				mu.Lock()
				lib[r] = b
				mu.Unlock()
			}
		}()
	}
	for _, r := range todo {
		work <- r
	}
	close(work)
	wg.Wait()
}

// checkStream compares the stream job's final snapshot with a batch
// Discover over the window it should retain.
func checkStream(sz sizes, st sessionStats) error {
	if st.streamErr != nil {
		return st.streamErr
	}
	if st.streamFinal.State != string(service.StateDone) {
		return fmt.Errorf("final state %s: %s", st.streamFinal.State, st.streamFinal.Error)
	}
	var got service.Result
	if err := json.Unmarshal(st.streamFinal.Result, &got); err != nil {
		return err
	}
	want, err := valmod.Discover(st.window, sz.StreamLMin, sz.StreamLMax, valmod.Options{Workers: 1})
	if err != nil {
		return err
	}
	return equivalent(&got, service.ResultOf(want))
}

// serveLayers derives the serve workload's per-layer metrics from the
// traced session, the traced library runs of its requests and an
// in-process replay of its stream.
func serveLayers(o options, rep *report, tr *Tracer, in serveInputs, plain, traced sessionRun, lib map[serveReq][]byte) {
	sz := o.size
	reqs := make([]serveReq, 0, len(lib))
	for r := range lib {
		reqs = append(reqs, r)
	}
	set := tr.Start("oracle.set", -1, "")
	libDiscover(o, in, reqs, map[serveReq][]byte{}, tr, set)
	tr.Finish(set, nil)
	replayStream(o, tr, in.stream)
	replayLayers(options{size: sizes{LMin: sz.ServeLMinLo, StompReps: sz.StompReps}}, tr, in.pool[:1])

	// Core figures are means per library Discover: the request set
	// varies in size with the run, and one STOMP replay (first pooled
	// series, smallest lmin) stands for every request's seed profile.
	q := newSpanQuery(tr.Spans())
	var c passCounts
	c.add(q, set)
	discovers := q.within(set, "valmod.Engine.Discover")
	var alloc []float64
	for _, d := range discovers {
		alloc = append(alloc, float64(d.Counts["alloc_bytes"])/1e6)
	}
	per := func(v float64) float64 { return ratio(v, float64(len(discovers))) }
	nd := len(discovers)
	rep.layer("core.seed_s", per(c.seed), nd, "mean")
	rep.layer("core.pruned_lengths_s", per(c.pruned), nd, "mean")
	rep.layer("core.full_lengths_s", per(c.full), nd, "mean")
	rep.layer("core.recomputed_anchors", per(c.recomputed), nd, "mean")
	rep.layer("core.certified_frac", ratio(c.certified, c.certified+c.recomputed), nd, "computed")
	rep.layer("core.fallback_lengths", per(c.fallback), nd, "mean")
	rep.layer("core.alloc_mb", median(alloc), len(alloc), "median")
	coreCommon(rep, q, per(c.seed), per(c.recomputed))
	rep.layer("kernels.diag_cells", per(c.cells), nd, "mean")
	cellRates(rep, c.cells, c.full)

	ms := func(name string) ([]float64, int) {
		d := q.durs(name)
		for i := range d {
			d[i] *= 1e3
		}
		return d, len(d)
	}
	appendMS, na := ms("replay.stream.Append")
	snapMS, ns := ms("replay.stream.Snapshot")
	rep.layer("stream.append_ms", median(appendMS), na, "replay")
	rep.layer("stream.snapshot_ms", median(snapMS), ns, "replay")

	submit, nsub := ms("http.POST /v1/jobs")
	rep.layer("service.submit_ms", median(submit), nsub, "median")
	var hits []float64
	jobs := q.named("serve.job")
	for _, j := range jobs {
		if j.Counts["cache_hit"] == 1 {
			hits = append(hits, j.Dur()*1e3)
		}
	}
	rep.layer("service.cache_hit_ms", median(hits), len(hits), "median")
	rep.layer("service.cache_hit_frac", ratio(float64(len(hits)), float64(len(jobs))), len(jobs), "computed")
	rep.layer("service.recover_s", median(traced.rec), len(traced.rec), "median")
	rep.layer("wal.open_s", median(traced.open), len(traced.open), "median")

	walMS := map[string]float64{}
	for _, k := range []string{"Append", "Submit", "Outcome", "Checkpoint"} {
		d, n := ms("wal.Save" + k)
		walMS[k] = median(d)
		rep.layer("wal.save_"+strings.ToLower(k)+"_ms", walMS[k], n, "median")
	}
	var ckptBytes []float64
	records := 0
	for _, s := range q.spans {
		if strings.HasPrefix(s.Name, "wal.Save") {
			records++
			if s.Name == "wal.SaveCheckpoint" {
				ckptBytes = append(ckptBytes, float64(s.Counts["bytes"])/1e6)
			}
		}
	}
	rep.layer("wal.checkpoint_mb", median(ckptBytes), len(ckptBytes), "median")
	rep.layer("wal.records", float64(records), 0, "total")
	tracedAppend, _ := ms("serve.append")
	rep.layer("service.append_overhead_ms", median(tracedAppend)-median(appendMS)-median(snapMS)-walMS["Append"], 0, "computed")

	var plainJobs, tracedJobs []float64
	for _, j := range plain.stats.jobs {
		plainJobs = append(plainJobs, j.latency)
	}
	for _, j := range traced.stats.jobs {
		tracedJobs = append(tracedJobs, j.latency)
	}
	rep.layer("trace.overhead_frac", median(tracedJobs)/median(plainJobs)-1, len(tracedJobs), "computed")
}

// replayStream feeds the stream client's chunk sequence to an in-process
// valmod.Stream of the same geometry: untimed until the window is full,
// then 16 timed chunks with Append and Snapshot (which the service runs
// after every append for change detection) timed apart.
func replayStream(o options, tr *Tracer, points []float64) {
	sz := o.size
	st, err := valmod.NewStream(sz.StreamLMin, sz.StreamLMax, valmod.Options{WindowCap: sz.WindowCap, Workers: 1})
	if err != nil {
		return
	}
	fill := (sz.WindowCap + sz.Chunk - 1) / sz.Chunk
	for c := 0; c < fill+16 && (c+1)*sz.Chunk <= len(points); c++ {
		chunk := points[c*sz.Chunk : (c+1)*sz.Chunk]
		t0 := time.Now()
		if err := st.Append(chunk); err != nil {
			return
		}
		t1 := time.Now()
		if st.Ready() {
			_, _ = st.Snapshot()
		}
		if c >= fill {
			tr.Add("replay.stream.Append", -1, t0, t1, nil)
			tr.Add("replay.stream.Snapshot", -1, t1, time.Now(), nil)
		}
	}
}
