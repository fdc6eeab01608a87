package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host is the provenance block printed with every result.
type host struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the benchmark was built from, or "unknown"
	// when the source tree is not a repository checkout.
	Commit   string `json:"commit"`
	CPUModel string `json:"cpu_model"`
}

func hostInfo(workload string, seed uint64) host {
	h := host{
		Workload:   workload,
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		if h.Commit != "unknown" {
			h.Commit += modified
		}
	}
	return h
}

// cpuModel reads the processor name the kernel reports.
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
