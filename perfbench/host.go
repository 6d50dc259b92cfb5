package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/seriesmining/valmod/internal/kernels"
)

// host identifies where and what a result was measured on. Results are
// only comparable when the machine fields (everything but the revision
// fields) match.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernels    string `json:"kernels_tier"`
	Revision   string `json:"git_revision"`
}

func hostRecord() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernels:    kernels.Active().String(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Revision += "+dirty"
			}
		}
	}
	return h
}

// sameMachine reports whether two results were measured on the same kind
// of host: the condition for comparing them at all.
func (h host) sameMachine(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.GoVersion == o.GoVersion && h.Kernels == o.Kernels
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
