package main

import (
	"github.com/seriesmining/valmod/internal/service"
)

// timedStore is a service.Store decorator that records one span per call
// into the wrapped store. It returns the wrapped store's errors unchanged
// and keeps nothing it is handed: a checkpoint blob is only measured
// (its length goes into the span), never copied or retained.
type timedStore struct {
	inner service.Store
	tr    *Tracer
}

func (s timedStore) call(name, key string, bytes int, f func() error) error {
	id := s.tr.Start(name, -1, key)
	err := f()
	counts := map[string]int64{"bytes": int64(bytes)}
	if err != nil {
		counts["errors"] = 1
	}
	s.tr.Finish(id, counts)
	return err
}

func (s timedStore) SaveSeries(id string, values []float64) error {
	return s.call("wal.SaveSeries", id, 8*len(values), func() error { return s.inner.SaveSeries(id, values) })
}

func (s timedStore) SaveSubmit(id string, req service.JobRequest) error {
	return s.call("wal.SaveSubmit", id, 8*len(req.Values), func() error { return s.inner.SaveSubmit(id, req) })
}

func (s timedStore) SaveAppend(id string, values []float64) error {
	return s.call("wal.SaveAppend", id, 8*len(values), func() error { return s.inner.SaveAppend(id, values) })
}

func (s timedStore) SaveCheckpoint(id string, ckpt []byte) error {
	return s.call("wal.SaveCheckpoint", id, len(ckpt), func() error { return s.inner.SaveCheckpoint(id, ckpt) })
}

func (s timedStore) SaveOutcome(id string, state service.State, errMsg string, res *service.Result) error {
	return s.call("wal.SaveOutcome", id, 0, func() error { return s.inner.SaveOutcome(id, state, errMsg, res) })
}
