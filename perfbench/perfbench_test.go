package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// runSmall runs one op of w at the reduced size.
func runSmall(t *testing.T, w workload, p params) outcome {
	t.Helper()
	p.small = true
	o, err := w.prepare(p)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	o.run()
	return o.outcome()
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmall(t, w, params{seed: 7, par: 1})
			b := runSmall(t, w, params{seed: 7, par: 1})
			c := runSmall(t, w, params{seed: 8, par: 1})
			if a.digest != b.digest {
				t.Fatalf("seed 7 gave two results: %x vs %x", a.digest[:8], b.digest[:8])
			}
			if a.digest == c.digest {
				t.Fatalf("seeds 7 and 8 gave the same result %x", a.digest[:8])
			}
			if len(a.breaches) > 0 || a.delivered != a.offered || a.offered == 0 {
				t.Fatalf("delivered %d of %d; breaches %v", a.delivered, a.offered, a.breaches)
			}
		})
	}
}

func TestDigestsAgreeAcrossWorkersAndShards(t *testing.T) {
	par := runtime.NumCPU()
	if par < 2 {
		par = 2
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one := runSmall(t, w, params{seed: 3, par: 1})
			many := runSmall(t, w, params{seed: 3, par: par})
			if one.digest != many.digest {
				t.Fatalf("digest at 1 is %x, at %d is %x", one.digest[:8], par, many.digest[:8])
			}
		})
	}
}

// TestTimedModelsKeepTheTrajectory checks that the traced run's draw
// timer leaves every result bit-identical.
func TestTimedModelsKeepTheTrajectory(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runSmall(t, w, params{seed: 5, par: 2})
			timed := runSmall(t, w, params{seed: 5, par: 2, timed: true})
			if n, _ := draws.collect(); n == 0 {
				t.Fatal("the draw timer saw no draws")
			}
			if plain.digest != timed.digest {
				t.Fatalf("timing the models changed the result")
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json that names the metrics
// a run must emit.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryBenchmarkMetricIsEmittedWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	tiny := ladderSize{events: 2000, frames: 500, datagrams: 50, packets: 20, sats: 64}
	for _, wl := range bf.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
		for _, mode := range []struct {
			name string
			run  func(env) (result, error)
			want []struct{ Name, Unit string }
		}{{"end-to-end", endToEndRun, bf.EndToEnd}, {"per-layer", perLayerRun, bf.PerLayer}} {
			t.Run(wl.Name+"/"+mode.name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := mode.run(env{w: w, seed: 2, seconds: 50 * time.Millisecond, nproc: 2,
					out: t.TempDir(), stdout: &out, small: true, ladder: tiny})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed: %+v\n%s", res, out.String())
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("%s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %g; want 5.5", m)
	}
	xs = append(xs, 11, 12, 13, 14, 15)
	if v, pct := tail(xs); v != 5 || pct != 100*5.0/15 {
		t.Fatalf("tail = %g at p%g; want 5 at p%g", v, pct, 100*5.0/15)
	}
}

func TestLayerOfGroupsByPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).stepUntil":       "sim",
		"repro/internal/channel.(*Pipe).Send":             "channel",
		"repro/internal/frame.(*Frame).WireLen":           "other",
		"runtime.mallocgc":                                "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":         "runtime",
		"gcWriteBarrier":                                  "runtime",
		"math.archLog":                                    "math",
		"sync.(*Pool).Get":                                "other",
		"main.(*timedModel).Corrupt":                      "other",
		"repro/internal/bench.mapIndexed[...].func1":      "bench",
		"repro/internal/shard.(*Constellation).Run.func1": "shard",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
