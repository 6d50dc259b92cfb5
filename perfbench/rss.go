package main

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// rssSampler samples the process's resident set size in the background
// and keeps the largest value seen since the last take. A process-wide
// high-water mark would report the single worst moment of a whole run;
// per-interval peaks let a run report the median peak of its passes.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak float64
}

// rssEvery is the sampling period: short against a pass or a job, long
// enough that sampling costs well under one percent of a CPU.
const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := rssMB()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// take returns the peak since the previous take (the current value
// included) and starts a new interval.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

var pageSize = float64(os.Getpagesize())

// rssMB is the current resident set size in MB, from /proc/self/statm
// (0 where that file does not exist).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * pageSize / 1e6
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
