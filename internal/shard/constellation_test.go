package shard

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/channel"
	_ "repro/internal/engines"
	"repro/internal/sim"
)

// smallConfig is a 64-satellite scenario scaled down enough for unit tests
// and the race-enabled smoke target.
func smallConfig() Config {
	cfg := DefaultConfig(WalkerGrid(64))
	cfg.Flows = 8
	cfg.DatagramsPerFlow = 10
	cfg.Horizon = 5 * sim.Second
	return cfg
}

func TestConstellationSmoke(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 2
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered == 0 || r.Delivered != r.Offered {
		t.Fatalf("delivered %d of %d offered", r.Delivered, r.Offered)
	}
	if r.Unroutable != 0 {
		t.Fatalf("%d unroutable flows in a connected grid", r.Unroutable)
	}
	if r.DelayP50 <= 0 || r.DelayMax < r.DelayP95 || r.DelayP95 < r.DelayP50 {
		t.Fatalf("implausible delay stats: p50=%v p95=%v max=%v", r.DelayP50, r.DelayP95, r.DelayMax)
	}
	if r.Events == 0 || r.Rounds == 0 {
		t.Fatalf("empty run: events=%d rounds=%d", r.Events, r.Rounds)
	}
	if strings.Contains(r.Render(), "shard") {
		t.Fatalf("Render leaks shard count:\n%s", r.Render())
	}
}

// TestConstellationShardInvariance is the determinism pin the engine's
// whole design serves: the full E19-style report — delivery counts, delay
// percentiles, frame totals, executed-event count — must be byte-identical
// whether the constellation runs on one shard or eight. Same style as the
// worker-count pins in internal/bench.
func TestConstellationShardInvariance(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	eight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.Render() != eight.Render() {
		t.Fatalf("report differs between 1 and 8 shards:\n--- shards=1\n%s--- shards=8\n%s",
			one.Render(), eight.Render())
	}
	if one.Events != eight.Events {
		t.Fatalf("executed events differ: %d vs %d", one.Events, eight.Events)
	}
}

// TestConstellationEveryProto runs the small scenario over each registered
// split-capable engine: the sharded path must uphold the same exactly-once
// delivery contract for the HDLC baselines as for LAMS-DLC.
func TestConstellationEveryProto(t *testing.T) {
	for _, proto := range []string{"lams", "srhdlc", "gbn"} {
		cfg := smallConfig()
		cfg.Proto = proto
		cfg.Shards = 4
		cfg.Flows = 4
		cfg.DatagramsPerFlow = 5
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if r.Delivered != r.Offered || r.Offered == 0 {
			t.Fatalf("%s: delivered %d of %d", proto, r.Delivered, r.Offered)
		}
	}
}

// TestWalkerGridValidate pins the preset shapes used by E19.
func TestWalkerGridValidate(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		w := WalkerGrid(n)
		if err := w.Validate(); err != nil {
			t.Fatalf("WalkerGrid(%d): %v", n, err)
		}
		if w.Total() != n {
			t.Fatalf("WalkerGrid(%d).Total() = %d", n, w.Total())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WalkerGrid(65) should panic")
		}
	}()
	WalkerGrid(65)
}

// TestTraceSpecParsedOnce pins that Build parses each error-model spec once
// and gives every adjacency pipe its own instance. Resolving the spec per
// pipe re-read and re-decoded the trace file 2,048 times at 256
// satellites, so Build allocated in proportion to pipes × trace size.
func TestTraceSpecParsedOnce(t *testing.T) {
	set := channel.NewTraceSet()
	rec := channel.NewRecorder(channel.MustParseModel("ge:gber=1e-6,bber=8e-2,mgood=2ms,mbad=1ms").New(), set.Stream("ab/i"))
	rng := sim.NewRNG(5)
	for i := 0; i < 4000; i++ {
		at := sim.Time(i) * sim.Time(100*sim.Microsecond)
		rec.Corrupt(rng, at, at+sim.Time(30*sim.Microsecond), 8000)
	}
	path := filepath.Join(t.TempDir(), "ge.trc")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(WalkerGrid(256))
	cfg.Flows = 16
	cfg.DatagramsPerFlow = 10
	cfg.Horizon = 2 * sim.Second
	buildAlloc := func(spec string) uint64 {
		c := cfg
		c.IModelSpec = spec
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Build(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	traceSpec := "trace:file=" + path + ",stream=ab/i"
	buildAlloc("fixed:p=0.01") // warm-up: one-time package state
	fixed := buildAlloc("fixed:p=0.01")
	trace := buildAlloc(traceSpec)
	if trace > 2*fixed {
		t.Fatalf("Build allocated %d B with a trace spec, %d B with fixed:p=0.01; want at most 2x", trace, fixed)
	}

	cfg.IModelSpec = traceSpec
	var renders [2]string
	for i, shards := range []int{1, 2} {
		cfg.Shards = shards
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders[i] = r.Render()
	}
	if renders[0] != renders[1] {
		t.Fatalf("trace-driven report differs across shard counts:\n--- shards=1 ---\n%s\n--- shards=2 ---\n%s", renders[0], renders[1])
	}
}
