package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	imetrics "repro/internal/metrics"
)

// perLayerDefs lists every metric the traced run reports, in print order.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"sim.events_per_datagram", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.cancelled_frac", "ratio"},
		{"sim.queue_peak", "count"},
		{"sim.ladder_ns_per_event", "ns"},
		{"channel.frames_per_datagram", "count"},
		{"channel.corrupted_frac", "ratio"},
		{"channel.model_ns_per_draw", "ns"},
		{"channel.wire_queue_ms_p50", "ms"},
	}
	for _, k := range pipeKinds {
		defs = append(defs, metricDef{"channel.ladder." + k.kind + "_ns_per_frame", "ns"})
	}
	for _, e := range engineNames {
		defs = append(defs,
			metricDef{"engine." + e + ".tx_per_datagram", "count"},
			metricDef{"engine." + e + ".dup_per_datagram", "count"},
			metricDef{"engine." + e + ".control_per_datagram", "count"},
			metricDef{"engine." + e + ".pair_ns_per_datagram", "ns"})
	}
	defs = append(defs,
		metricDef{"engine.lams.enforced_recoveries", "count"},
		metricDef{"engine.lams.storm_dup_per_datagram", "count"},
		metricDef{"faults.checker_share", "ratio"},
		metricDef{"faults.injector_share", "ratio"},
		metricDef{"faults.violations", "count"},
		metricDef{"bench.pool_speedup", "ratio"},
		metricDef{"shard.rounds", "count"},
		metricDef{"shard.events_per_round", "count"},
		metricDef{"shard.speedup", "ratio"},
		metricDef{"orbit.delay_ns", "ns"},
		metricDef{"node.frames_per_datagram", "count"},
		metricDef{"node.relay_ns_per_hop", "ns"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "ratio"})
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"})
}

// layerValues collects per-layer values by name; a name never set is
// reported as n/a (0 in the result line) because its layer did no work
// on the workload.
type layerValues map[string]float64

// perLayerRun is the traced run. It profiles untraced ops, then
// alternates untraced and traced ops (spans and the draw timer on) to
// price the tracing, times the paired on/off runs the workload allows,
// drives the layer ladder, and reads the counters the program's own
// reports carry.
func perLayerRun(e env) (result, error) {
	p := params{seed: e.seed, par: e.nproc, small: e.small}
	ref, err := reference(e, p)
	if err != nil {
		return result{}, err
	}
	v := layerValues{}
	half := e.seconds / 2
	var all []sample

	// Untraced ops under the CPU profiler: op time, GC cost, layer shares.
	profPath := filepath.Join(e.out, fmt.Sprintf("cpu-%s-%d.pprof", e.w.name, e.seed))
	plain, err := profiled(profPath, func() ([]sample, error) {
		return runOps(e.w, plainOps(p), ref, half, minOps/2)
	})
	if err != nil {
		return result{}, err
	}
	all = append(all, plain...)
	var gc gcStats
	for _, s := range plain {
		gc = gc.plus(s.gc)
	}
	v["runtime.gc_cpu_frac"] = gc.gcCPU / gc.totalCPU
	v["runtime.gc_cycles_per_op"] = float64(gc.cycles) / float64(len(plain))

	// Alternate untraced and traced ops, so drift hits both alike.
	tr := newTracer()
	tp := p
	tp.timed = true
	draws.collect()
	mixed, err := runOps(e.w, func(i int) (params, *tracer) {
		if i%2 == 1 {
			return tp, tr
		}
		return p, nil
	}, ref, half, minOps/2)
	if err != nil {
		return result{}, err
	}
	all = append(all, mixed...)
	if n, ns := draws.collect(); n > 0 {
		v["channel.model_ns_per_draw"] = math.Max(0, float64(ns)/float64(n)-clockCost())
	}
	v["trace.overhead_frac"] = opMS(mixed, true)/opMS(mixed, false) - 1

	paired, singleMS, err := pairedRuns(e, p, tr, v)
	if err != nil {
		return result{}, err
	}
	all = append(all, paired...)
	countersOf(ref, singleMS, v)
	if e.w.recovery {
		storm, err := stormRun(e, p, tr, v)
		if err != nil {
			return result{}, err
		}
		all = append(all, storm)
	}
	if err := runLadder(e.ladder, tr, v); err != nil {
		return result{}, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return result{}, err
	}
	for l, s := range shares {
		v["cpu_share."+l] = s
	}
	if err := tr.write(filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.jsonl", e.w.name, e.seed))); err != nil {
		return result{}, err
	}

	res := result{Attempted: len(all), Metrics: map[string]metric{}}
	for _, s := range all {
		if s.breach != "" {
			if res.Failed == 0 {
				fmt.Fprintf(e.stdout, "failed op: %s\n", s.breach)
			}
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(e.stdout, "%s seed %d traced: %d ops, %d failed; span self time:\n", e.w.name, e.seed, res.Attempted, res.Failed)
	for _, st := range tr.summary() {
		fmt.Fprintf(e.stdout, "  %-44s %5d calls %11.3f ms total %11.3f ms self\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	na := 0
	for _, d := range perLayerDefs() {
		val, ok := v[d.name]
		shown := fmt.Sprintf("%.6g", val)
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			na++
			val, shown = 0, "n/a"
		}
		res.Metrics[d.name] = metric{val, d.unit}
		fmt.Fprintf(e.stdout, "  %-44s %14s %s\n", d.name, shown, d.unit)
	}
	fmt.Fprintf(e.stdout, "%d metrics n/a on %s (reported as 0)\n", na, e.w.name)
	return res, nil
}

// profiled runs fn under the CPU profiler, writing the profile to path.
func profiled(path string, fn func() ([]sample, error)) ([]sample, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	samples, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return samples, err
}

// opMS is the median op time in milliseconds of the samples whose traced
// flag equals traced.
func opMS(samples []sample, traced bool) float64 {
	var ms []float64
	for _, s := range samples {
		if s.traced == traced {
			ms = append(ms, float64(s.op)/float64(time.Millisecond))
		}
	}
	return median(ms)
}

// gcStats is a reading of the runtime's cumulative GC counters.
type gcStats struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func (g gcStats) minus(h gcStats) gcStats {
	return gcStats{g.gcCPU - h.gcCPU, g.totalCPU - h.totalCPU, g.cycles - h.cycles}
}

func (g gcStats) plus(h gcStats) gcStats {
	return gcStats{g.gcCPU + h.gcCPU, g.totalCPU + h.totalCPU, g.cycles + h.cycles}
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// pairRounds is how many alternating on/off pairs each paired timing
// takes.
const pairRounds = 3

// timedOp prepares and runs one op of w under a span of its own and
// checks it against no reference: the paired settings change the
// trajectory, so only the invariants and the delivery count apply.
func timedOp(w workload, name string, p params, tr *tracer) (sample, outcome, error) {
	id := tr.begin(name, -1)
	defer tr.end(id)
	o, err := w.prepare(p)
	if err != nil {
		return sample{}, outcome{}, err
	}
	t0 := time.Now()
	o.run()
	s := sample{op: time.Since(t0)}
	res := o.outcome()
	s.delivered = res.delivered
	s.breach = check(res, nil)
	return s, res, nil
}

// pairedRuns times the workload with one mechanism switched between two
// settings, alternating the two, and records each timing's ratio. It
// returns the median op time at one worker or shard, in milliseconds.
func pairedRuns(e env, p params, tr *tracer, v layerValues) ([]sample, float64, error) {
	var all []sample
	pair := func(name string, on, off params) (onMS, offMS float64, err error) {
		var ons, offs []sample
		for r := 0; r < pairRounds; r++ {
			a, _, err := timedOp(e.w, name+".on", on, tr)
			if err != nil {
				return 0, 0, err
			}
			b, _, err := timedOp(e.w, name+".off", off, tr)
			if err != nil {
				return 0, 0, err
			}
			ons, offs = append(ons, a), append(offs, b)
		}
		all = append(append(all, ons...), offs...)
		return opMS(ons, false), opMS(offs, false), nil
	}
	one := p
	one.par = 1
	if !e.w.link {
		multi, single, err := pair("pair.shards", p, one)
		if err != nil {
			return nil, 0, err
		}
		v["shard.speedup"] = single / multi
		return all, single, nil
	}
	multi, single, err := pair("pair.workers", p, one)
	if err != nil {
		return nil, 0, err
	}
	v["bench.pool_speedup"] = single / multi
	if e.w.recovery {
		noChk, noInj := p, p
		noChk.noChecker, noInj.noFaults = true, true
		on, off, err := pair("pair.checker", p, noChk)
		if err != nil {
			return nil, 0, err
		}
		v["faults.checker_share"] = (on - off) / on
		if on, off, err = pair("pair.injector", p, noInj); err != nil {
			return nil, 0, err
		}
		v["faults.injector_share"] = (on - off) / on
	}
	return all, single, nil
}

// stormRun runs link-recovery once at full size under stormFaults, one
// 10,000-datagram run per engine, and reports LAMS-DLC's duplicates per
// datagram there. The run is checked like every op.
func stormRun(e env, p params, tr *tracer, v layerValues) (sample, error) {
	p.storm = true
	s, res, err := timedOp(e.w, "storm", p, tr)
	if err != nil {
		return sample{}, err
	}
	var dup, n float64
	for i, r := range res.links {
		if res.cfgs[i].Protocol == "lams" {
			dup += float64(r.Duplicates)
			n += float64(res.cfgs[i].N)
		}
	}
	v["engine.lams.storm_dup_per_datagram"] = dup / n
	return s, nil
}

// countersOf derives the per-layer counts and ratios from the reference
// op's results; singleMS, the median op time at one worker or shard,
// turns events into host time per event.
func countersOf(ref outcome, singleMS float64, v layerValues) {
	if r := ref.report; r != nil {
		v["sim.events_per_datagram"] = float64(r.Events) / float64(r.Delivered)
		v["sim.ns_per_event"] = singleMS * 1e6 / float64(r.Events)
		v["channel.frames_per_datagram"] = float64(r.FramesSent) / float64(r.Delivered)
		v["node.frames_per_datagram"] = float64(r.FramesSent) / float64(r.Delivered)
		v["shard.rounds"] = float64(r.Rounds)
		v["shard.events_per_round"] = float64(r.Events) / float64(r.Rounds)
		return
	}
	type engineTally struct{ tx, dup, ctrl, unique float64 }
	tallies := map[string]*engineTally{}
	var events, scheduled, cancelled, sent, corrupted, unique, peak, enforced, violations float64
	var queue imetrics.HistogramSnapshot
	checked := false
	for i, r := range ref.links {
		c := ref.cfgs[i]
		s := r.Snapshot
		got := float64(c.N - r.Lost)
		events += float64(s.Counter("sim_events_executed_total"))
		scheduled += float64(s.Counter("sim_events_scheduled_total"))
		cancelled += float64(s.Counter("sim_events_cancelled_total"))
		peak = math.Max(peak, s.Gauges["sim_event_queue_peak"])
		sent += float64(s.Counter("channel_frames_sent_total"))
		corrupted += float64(s.Counter("channel_frames_corrupted_total"))
		queue = mergeHist(queue, s.Histograms["channel_wire_queue_ns"])
		unique += got
		name := string(c.Protocol)
		t := tallies[name]
		if t == nil {
			t = &engineTally{}
			tallies[name] = t
		}
		t.tx += float64(r.FirstTx + r.Retransmissions)
		t.dup += float64(r.Duplicates)
		t.ctrl += float64(r.ControlSent)
		t.unique += got
		if name == "lams" {
			enforced += float64(s.Counter("lams_enforced_recoveries_total"))
		}
		violations += float64(len(r.Violations))
		checked = checked || c.CheckInvariants
	}
	v["sim.events_per_datagram"] = events / unique
	v["sim.ns_per_event"] = singleMS * 1e6 / events
	v["sim.cancelled_frac"] = cancelled / scheduled
	v["sim.queue_peak"] = peak
	v["channel.frames_per_datagram"] = sent / unique
	v["channel.corrupted_frac"] = corrupted / sent
	v["channel.wire_queue_ms_p50"] = histQuantile(queue, 0.5) / 1e6
	for name, t := range tallies {
		v["engine."+name+".tx_per_datagram"] = t.tx / t.unique
		v["engine."+name+".dup_per_datagram"] = t.dup / t.unique
		v["engine."+name+".control_per_datagram"] = t.ctrl / t.unique
	}
	if _, ok := tallies["lams"]; ok {
		v["engine.lams.enforced_recoveries"] = enforced
	}
	if checked {
		v["faults.violations"] = violations
	}
}

// mergeHist adds b's buckets into a; histograms of one name share bounds.
func mergeHist(a, b imetrics.HistogramSnapshot) imetrics.HistogramSnapshot {
	if len(a.Counts) == 0 {
		a.Bounds = b.Bounds
		a.Counts = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// histQuantile interpolates quantile q of h linearly within its bucket;
// a value in the overflow bucket reads as the last bound.
func histQuantile(h imetrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if cum+float64(c) >= target && c > 0 {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo + (target-cum)/float64(c)*(h.Bounds[i]-lo)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// runLadder runs every rung of the ladder under a span of its own.
func runLadder(sz ladderSize, tr *tracer, v layerValues) error {
	step := func(name string, fn func() (float64, error)) error {
		id := tr.begin("ladder."+name, -1)
		ns, err := fn()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		v[name] = ns
		return nil
	}
	depth := int(v["sim.queue_peak"])
	if err := step("sim.ladder_ns_per_event", func() (float64, error) { return ladderScheduler(sz, depth) }); err != nil {
		return err
	}
	id := tr.begin("ladder.channel.Pipe", -1)
	pipes, err := ladderPipes(sz)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("ladder channel.Pipe: %w", err)
	}
	for kind, ns := range pipes {
		v["channel.ladder."+kind+"_ns_per_frame"] = ns
	}
	for _, name := range engineNames {
		if err := step("engine."+name+".pair_ns_per_datagram", func() (float64, error) { return ladderPair(sz, name) }); err != nil {
			return err
		}
	}
	if err := step("orbit.delay_ns", func() (float64, error) { return ladderOrbit(sz) }); err != nil {
		return err
	}
	return step("node.relay_ns_per_hop", func() (float64, error) { return ladderRelay(sz) })
}
