// Command perfbench is the repository's benchmark. One invocation runs
// one named workload from a seed and prints, as the last line of its
// output, one JSON object with the run's correctness and metrics.
//
//	bash perfbench/run.sh --workload link-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it makes the traced run that gives the per-layer
// metrics: spans around the calls it makes into each layer, isolated
// layer runs, and a CPU profile grouped by package. Nothing inside the
// program is instrumented for it.
//
// Every op is checked: its invariants must hold, every fault it
// schedules must fire, it must deliver every datagram it offered, and its
// result digest must equal the reference digest computed at one worker
// (or one shard) for the same seed. The command exits 1 when any op
// fails and 2 on bad flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"datagrams_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"allocs_per_datagram", "count"},
	{"alloc_bytes_per_datagram", "B"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"sim_efficiency", "ratio"},
	{"sim_delay_ms", "ms"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one invocation's settings.
type env struct {
	w       workload
	seed    uint64
	seconds time.Duration
	nproc   int
	out     string // directory for spans and profiles
	stdout  io.Writer
	// small and ladder size the workloads and the layer ladder; only the
	// package's tests shrink them.
	small  bool
	ladder ladderSize
}

// minOps is the fewest ops a measurement takes, so that the tail
// percentile always has ten samples beyond it.
const minOps = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: link-sweep, link-recovery or constellation")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload link-sweep|link-recovery|constellation, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := env{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), out: *out, stdout: stdout, ladder: fullLadder}
	hostLine, _ := json.Marshal(map[string]host{"host": hostInfo(w.name, *seed)})
	fmt.Fprintf(stdout, "%s\n", hostLine)

	var res result
	var err error
	if *trace == 1 {
		res, err = perLayerRun(e)
	} else {
		res, err = endToEndRun(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// reference runs one op at a single worker or shard and checks its
// invariants; its digest is what every measured op must reproduce.
func reference(e env, p params) (outcome, error) {
	p.par = 1
	o, err := e.w.prepare(p)
	if err != nil {
		return outcome{}, err
	}
	o.run()
	ref := o.outcome()
	if breach := check(ref, nil); breach != "" {
		return ref, fmt.Errorf("reference op failed: %s", breach)
	}
	return ref, nil
}

// endToEndRun measures the workload with tracing off.
func endToEndRun(e env) (result, error) {
	p := params{seed: e.seed, par: e.nproc, small: e.small}
	ref, err := reference(e, p)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	samples, err := runOps(e.w, plainOps(p), ref, e.seconds, minOps)
	if err != nil {
		return result{}, err
	}
	var setup, ops, rate, allocs, bytes []float64
	failed := 0
	for _, s := range samples {
		if s.breach != "" {
			if failed == 0 {
				fmt.Fprintf(e.stdout, "failed op: %s\n", s.breach)
			}
			failed++
		}
		setup = append(setup, s.setup.Seconds())
		ops = append(ops, float64(s.op)/float64(time.Millisecond))
		rate = append(rate, float64(s.delivered)/s.op.Seconds())
		allocs = append(allocs, float64(s.mallocs)/float64(s.delivered))
		bytes = append(bytes, float64(s.bytes)/float64(s.delivered))
	}
	tailMS, tailPct := tail(ops)
	n := len(samples)
	res := result{
		Correct:   failed == 0,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":                  {median(setup), "s"},
			"datagrams_per_s":          {median(rate), "1/s"},
			"op_ms_p50":                {median(ops), "ms"},
			"op_ms_tail":               {tailMS, "ms"},
			"allocs_per_datagram":      {median(allocs), "count"},
			"alloc_bytes_per_datagram": {median(bytes), "B"},
			"peak_rss_mb":              {peakRSSMB(), "MB"},
			"ok_frac":                  {float64(n-failed) / float64(n), "ratio"},
			"sim_efficiency":           {ref.efficiency, "ratio"},
			"sim_delay_ms":             {ref.delayMS, "ms"},
		},
	}
	fmt.Fprintf(e.stdout, "%s seed %d: %d ops, %d failed (failed_frac %g); op_ms_tail is p%.1f of %d ops\n",
		e.w.name, e.seed, n, failed, float64(failed)/float64(n), tailPct, n)
	fmt.Fprintf(e.stdout, "%-26s %14s %-6s %14s %14s %8s\n", "metric", "value", "unit", "p25", "p75", "spread")
	spreads := map[string][]float64{"setup_s": setup, "datagrams_per_s": rate, "op_ms_p50": ops,
		"allocs_per_datagram": allocs, "alloc_bytes_per_datagram": bytes}
	for _, d := range endToEnd {
		m := res.Metrics[d.name]
		if xs, ok := spreads[d.name]; ok {
			q1, q3 := quartiles(xs)
			fmt.Fprintf(e.stdout, "%-26s %14.6g %-6s %14.6g %14.6g %7.1f%%\n", d.name, m.Value, m.Unit, q1, q3, 100*(q3-q1)/m.Value)
		} else {
			fmt.Fprintf(e.stdout, "%-26s %14.6g %-6s\n", d.name, m.Value, m.Unit)
		}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
