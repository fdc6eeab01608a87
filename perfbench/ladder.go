package main

import (
	"fmt"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/orbit"
	"repro/internal/shard"
	"repro/internal/sim"
)

// The layer ladder: isolated runs that time one layer's public
// functions with nothing else running. Each returns host nanoseconds per
// unit of work, the median of ladderReps repetitions, or an error when
// the layer did not do the work it was given.

const ladderReps = 5

// ladderSize scales every rung's work; the package's tests shrink it.
type ladderSize struct {
	events, frames, datagrams, packets int
	sats                               int
}

var fullLadder = ladderSize{events: 200000, frames: 50000, datagrams: 2000, packets: 1000, sats: 1024}

// repeat runs fn once to warm up, then times it ladderReps times and
// returns the median ns per unit.
func repeat(units int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ns := make([]float64, 0, ladderReps)
	for r := 0; r < ladderReps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0))/float64(units))
	}
	return median(ns), nil
}

// ladderScheduler times the schedule→fire cycle with depth far-future
// events standing in the queue, the population a workload's runs peak at.
func ladderScheduler(sz ladderSize, depth int) (float64, error) {
	return repeat(sz.events, func() error {
		s := sim.NewScheduler()
		s.Instrument(metrics.New())
		for i := 0; i < depth; i++ {
			s.ScheduleDetached(sim.Time(time.Hour)+sim.Time(i)*sim.Time(sim.Millisecond), func() {})
		}
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired < sz.events {
				s.ScheduleAfterDetached(sim.Microsecond, tick)
			}
		}
		s.ScheduleAfterDetached(sim.Microsecond, tick)
		for fired < sz.events && s.Step() {
		}
		if fired != sz.events {
			return fmt.Errorf("scheduler fired %d of %d events", fired, sz.events)
		}
		return nil
	})
}

// pipeKinds are the error-model kinds the pipe ladder drives, each with
// the parameters a workload uses. trace replays a recording of ge.
var pipeKinds = []struct{ kind, spec string }{
	{"perfect", "perfect"},
	{"fixed", "fixed:p=0.01"},
	{"bsc", "bsc:ber=1e-6"},
	{"ge", recoveryGE},
	{"trace", ""},
}

// ladderPipe times Pipe send→deliver of 1 KiB I-frames over the base
// link, with a fresh instance of the model newModel returns per
// repetition.
func ladderPipe(sz ladderSize, newModel func() channel.ErrorModel) (float64, error) {
	base := bench.Base()
	f := frame.NewI(1, 1, make([]byte, base.PayloadBytes))
	return repeat(sz.frames, func() error {
		sched := sim.NewScheduler()
		p := channel.NewPipe(sched, channel.PipeConfig{
			RateBps: base.RateBps,
			Delay:   channel.ConstantDelay(base.OneWay),
			IModel:  newModel(),
			Metrics: metrics.New(),
		}, sim.NewRNG(1))
		got := 0
		p.SetHandler(func(_ sim.Time, f *frame.Frame) {
			got++
			// A clean I-frame is the handler's to recycle, as the engines
			// do; the pipe recycles corrupted ones itself.
			if !f.Corrupted {
				frame.Put(f)
			}
		})
		for i := 0; i < sz.frames; i++ {
			p.Send(f)
			if i%1024 == 1023 {
				sched.Run()
			}
		}
		sched.Run()
		if got != sz.frames {
			return fmt.Errorf("pipe delivered %d of %d frames", got, sz.frames)
		}
		return nil
	})
}

// ladderPipes runs ladderPipe for every kind in pipeKinds.
func ladderPipes(sz ladderSize) (map[string]float64, error) {
	out := map[string]float64{}
	for _, k := range pipeKinds {
		newModel := func() channel.ErrorModel { return channel.MustParseModel(k.spec).New() }
		if k.kind == "trace" {
			// Record the ge model's decisions over the same frame stream,
			// then replay them.
			set := channel.NewTraceSet()
			rec := channel.NewRecorder(channel.MustParseModel(recoveryGE).New(), set.Stream("ab/i"))
			if _, err := ladderPipe(ladderSize{frames: sz.frames}, func() channel.ErrorModel { return rec }); err != nil {
				return nil, err
			}
			newModel = func() channel.ErrorModel { return channel.NewReplay(set.Get("ab/i"), channel.LoopReplay) }
		}
		ns, err := ladderPipe(sz, newModel)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.kind, err)
		}
		out[k.kind] = ns
	}
	return out, nil
}

// ladderPair times one engine's sender/receiver pair moving a saturating
// offer over a perfect base link.
func ladderPair(sz ladderSize, engine string) (float64, error) {
	c := bench.Base()
	c.Protocol = bench.Protocol(engine)
	c.N = sz.datagrams
	return repeat(c.N, func() error {
		if r := bench.Run(c); r.Lost != 0 {
			return fmt.Errorf("%s pair lost %d of %d datagrams", engine, r.Lost, c.N)
		}
		return nil
	})
}

// ladderOrbit times channel.OrbitDelay over every crosslink of the Walker
// grid the constellation workload flies: the ring inside each plane and
// the rungs between neighbouring planes, each evaluated once per
// simulated millisecond for 50 ms.
func ladderOrbit(sz ladderSize) (float64, error) {
	w := shard.WalkerGrid(sz.sats)
	orbits := w.Orbits()
	grazing := shard.DefaultConfig(w).GrazingAltitudeM
	sat := func(p, s int) int { return p*w.PerPlane + s }
	var delays []channel.DelayFn
	for p := 0; p < w.Planes; p++ {
		for s := 0; s < w.PerPlane; s++ {
			for _, v := range []int{sat(p, (s+1)%w.PerPlane), sat((p+1)%w.Planes, s)} {
				l := orbit.Link{A: orbits[sat(p, s)], B: orbits[v], GrazingAltitudeM: grazing}
				delays = append(delays, channel.OrbitDelay(l, 0))
			}
		}
	}
	const steps = 50
	return repeat(len(delays)*steps, func() error {
		var sum sim.Duration
		for k := 0; k < steps; k++ {
			at := sim.Time(k) * sim.Time(sim.Millisecond)
			for _, d := range delays {
				sum += d(at)
			}
		}
		if sum <= 0 {
			return fmt.Errorf("orbit delays summed to %v", sum)
		}
		return nil
	})
}

// ladderRelay times store-and-forward relay on a 3-node LAMS-DLC line
// over perfect base links: node 0 sends to node 2, so every packet makes
// two hops.
func ladderRelay(sz ladderSize) (float64, error) {
	base := bench.Base()
	reg, err := arq.ParseProtocol("lams")
	if err != nil {
		return 0, err
	}
	eng := arq.MustEngine(reg.Name, reg.Defaults(2*base.OneWay))
	pipe := channel.PipeConfig{RateBps: base.RateBps, Delay: channel.ConstantDelay(base.OneWay)}
	payload := make([]byte, base.PayloadBytes)
	return repeat(2*sz.packets, func() error {
		sched := sim.NewScheduler()
		nodes, _ := node.Line(sched, 3, eng, pipe, sim.NewRNG(1))
		src, dst := nodes[0], nodes[2]
		got := 0
		dst.OnDeliver = func(sim.Time, node.Packet) {
			if got++; got == sz.packets {
				sched.Stop()
			}
		}
		for i := 0; i < sz.packets; i++ {
			if !src.Send(dst.ID(), payload) {
				return fmt.Errorf("relay refused packet %d", i)
			}
		}
		sched.RunFor(time.Minute)
		if got != sz.packets {
			return fmt.Errorf("relay delivered %d of %d packets", got, sz.packets)
		}
		return nil
	})
}
