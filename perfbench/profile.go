package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuLayers are the groups cpu_share.* reports: the program's layers by
// package directory, the Go runtime (scheduler, allocator and GC), the
// math package the orbit geometry leans on, and everything else.
var cpuLayers = []string{
	"sim", "channel", "lamsdlc", "hdlc", "ssarq", "arq", "faults", "bench",
	"workload", "shard", "orbit", "node", "metrics", "runtime", "math", "other",
}

// layerOf maps a fully qualified function name, as pprof prints it, to
// its cpu_share group.
func layerOf(fn string) string {
	pkg := fn
	if slash := strings.LastIndex(pkg, "/"); slash >= 0 {
		if dot := strings.Index(pkg[slash:], "."); dot >= 0 {
			pkg = pkg[:slash+dot]
		}
	} else if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case !strings.ContainsAny(fn, "./"):
		// Assembly helpers of the runtime (gcWriteBarrier, aeshashbody).
		return "runtime"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case strings.HasPrefix(pkg, "repro/internal/"):
		dir := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range cpuLayers {
			if l == dir {
				return l
			}
		}
	}
	return "other"
}

// cpuShares reads a CPU profile with `go tool pprof -top` and returns the
// flat share of the samples in each cpuLayers group.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop sums the flat% column of pprof's -top table per group.
func parseTop(out []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		shares[layerOf(f[5])] += pct / 100
	}
	if !inTable {
		return nil, fmt.Errorf("pprof printed no table")
	}
	return shares, nil
}
