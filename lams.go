// Package lams is the public face of the LAMS-DLC reproduction: a
// discrete-event implementation of the LAMS-DLC ARQ protocol (Ward & Choi,
// Auburn CSE-91-03 / SIGCOMM 1991) for low-altitude multiple-satellite
// laser crosslinks, together with the selective-repeat and Go-Back-N HDLC
// baselines, the self-stabilizing SS-ARQ engine, the link/orbit/FEC
// substrates they run on, and the analytical model of the paper's
// Section 4.
//
// The facade wraps the internal packages into a small surface. Pairs are
// built through the engine registry, error models through the channel-model
// registry, exactly as the CLIs build them:
//
//	simu := lams.NewSimulation(42)
//	lp := lams.LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
//	link := simu.NewLink(lp)
//	eng, _ := arq.DefaultEngine("lams", 2*lp.OneWay())
//	pair := simu.NewPair(eng, link, deliver, nil)
//	pair.Enqueue(...)
//	simu.RunFor(time.Second)
//
// Everything below this facade is importable inside the module
// (internal/...), documented per package: sim (event kernel), frame (wire
// format), fec, orbit, channel, arq (engine contract and registry),
// lamsdlc (the protocol), hdlc and ssarq (the other engines), analysis
// (closed forms), resequence, node (store-and-forward), workload, bench
// (experiment harness), live (real-time driver).
package lams

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/channel"
	_ "repro/internal/engines" // every registered engine, by name
	"repro/internal/lamsdlc"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// Re-exported core types, so example and downstream code reads naturally.
type (
	// Datagram is the unit of the DLC's datagram service.
	Datagram = arq.Datagram
	// DeliverFunc receives datagrams handed up to the network layer.
	DeliverFunc = arq.DeliverFunc
	// FailureFunc is invoked when a sender declares link failure.
	FailureFunc = arq.FailureFunc
	// Engine binds a registered protocol to its configuration.
	Engine = arq.Engine
	// Pair is a wired sender/receiver pair running one engine.
	Pair = arq.Pair
	// Config parameterizes LAMS-DLC endpoints.
	Config = lamsdlc.Config
	// Link is a simulated full-duplex point-to-point link.
	Link = channel.Link
	// Time and Duration are virtual-clock instants and spans.
	Time = sim.Time
	// AnalysisParams carries the Section 4 closed-form parameters.
	AnalysisParams = analysis.Params
)

// Simulation owns a deterministic virtual-time world: scheduler plus seeded
// randomness. All objects created through it share the same clock.
type Simulation struct {
	sched *sim.Scheduler
	rng   *sim.RNG
}

// NewSimulation returns an empty world; identical seeds reproduce identical
// runs bit for bit.
func NewSimulation(seed uint64) *Simulation {
	return &Simulation{sched: sim.NewScheduler(), rng: sim.NewRNG(seed)}
}

// Scheduler exposes the underlying event scheduler for advanced use
// (custom timers, workload generators).
func (s *Simulation) Scheduler() *sim.Scheduler { return s.sched }

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.sched.Now() }

// RunFor advances virtual time by d, executing everything due.
func (s *Simulation) RunFor(d time.Duration) { s.sched.RunFor(d) }

// LinkParams describes a laser crosslink in physical terms. The FEC layer
// of the link model (assumption 4) is applied automatically: I-frames ride
// Hamming(7,4), control frames the stronger repetition code, so the BER
// maps to much smaller residual frame error probabilities for control
// traffic.
type LinkParams struct {
	// RateBps is the wire rate (300e6–1e9 in the paper's environment).
	RateBps float64
	// DistanceKm sets a constant propagation distance. Mutually exclusive
	// with Orbit.
	DistanceKm float64
	// Orbit, when non-nil, drives a time-varying propagation delay from
	// real geometry.
	Orbit *orbit.Link
	// BER is the post-interleaving channel bit error rate. Zero means a
	// perfect channel.
	BER float64
	// Burst, when non-nil, adds a deterministic burst process on top. Its
	// BaseBER and Scheme are ignored: BER and the FEC split apply.
	Burst *channel.BurstTrain
}

// delayFn builds the propagation model.
func (p LinkParams) delayFn() channel.DelayFn {
	if p.Orbit != nil {
		return channel.OrbitDelay(*p.Orbit, 0)
	}
	return channel.ConstantDelay(orbit.PropagationDelay(p.DistanceKm * 1e3))
}

// OneWay returns the (initial) one-way propagation delay.
func (p LinkParams) OneWay() time.Duration { return p.delayFn()(0) }

// specs returns the I-frame and control-frame model specs: the BER through
// channel.LegacySpecs' FEC split, or a burst train carrying the same split.
func (p LinkParams) specs() (imodel, cmodel string) {
	if b := p.Burst; b != nil {
		burst := fmt.Sprintf("burst:period=%v,len=%v,offset=%v,ber=%g,fec=",
			b.Period, b.BurstLen, b.Offset, p.BER)
		return burst + "hamming74", burst + "rep3"
	}
	imodel, cmodel = channel.LegacySpecs(p.BER, -1, 0)
	if imodel == "" {
		return "perfect", "perfect"
	}
	return imodel, cmodel
}

// NewLink materializes the link in this simulation. It panics on link
// parameters no model accepts (a BER above 1, a burst longer than its
// period): that is wiring-time misuse.
func (s *Simulation) NewLink(p LinkParams) *Link {
	is, cs := p.specs()
	return channel.NewLink(s.sched, channel.PipeConfig{
		RateBps: p.RateBps,
		Delay:   p.delayFn(),
		IModel:  channel.MustParseModel(is).New(),
		CModel:  channel.MustParseModel(cs).New(),
	}, s.rng.Split())
}

// DefaultsFor returns a LAMS-DLC configuration tuned to the link's round
// trip, as lamsdlc.Defaults does.
func DefaultsFor(p LinkParams) Config {
	return lamsdlc.Defaults(2 * p.OneWay())
}

// NewPair wires a session of engine e over link (data flows A→B) and starts
// it. Any registered engine works: arq.DefaultEngine(name, 2*lp.OneWay())
// gives its registry defaults for link parameters lp, arq.MustEngine a
// tuned configuration.
// onFailure (may be nil) fires if the sender declares the link failed.
func (s *Simulation) NewPair(e Engine, link *Link, deliver DeliverFunc, onFailure FailureFunc) Pair {
	p := e.NewPair(s.sched, link, deliver, onFailure)
	p.Start()
	return p
}

// AnalysisFor maps a link and protocol configuration onto the paper's
// closed-form parameters for the given I-frame payload size and HDLC
// comparison window.
func AnalysisFor(p LinkParams, cfg Config, payloadBytes, window int, alpha time.Duration) AnalysisParams {
	return analysis.FromScenario(analysis.Scenario{
		RateBps:      p.RateBps,
		BER:          p.BER,
		FrameBytes:   payloadBytes + 21,
		ControlBytes: 20,
		OneWay:       p.OneWay(),
		Icp:          cfg.CheckpointInterval,
		Cdepth:       cfg.CumulationDepth,
		W:            window,
		Tproc:        cfg.ProcTime,
		Alpha:        alpha,
	})
}
