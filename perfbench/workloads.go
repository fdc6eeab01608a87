package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/arq"
	"repro/internal/bench"
	"repro/internal/channel"
	_ "repro/internal/engines" // every engine the workloads name
	"repro/internal/faults"
	"repro/internal/shard"
	"repro/internal/sim"
)

// engineNames are the registered engines every link workload runs, in
// batch order. The per-layer metric names are built from them.
var engineNames = []string{"lams", "srhdlc", "gbn", "ssarq"}

const (
	// recoveryGE is the bursty channel of link-recovery, used on both the
	// I-frame and the checkpoint path: 20 ms clean sojourns at BER 1e-7
	// broken by 2 ms bursts at BER 1e-3.
	recoveryGE = "ge:gber=1e-7,bber=1e-3,mgood=20ms,mbad=2ms"
	// recoveryFaults blacks the link out for 40 ms and then floods the
	// checkpoint path with NAK storms.
	recoveryFaults = "outage@100ms+40ms; storm@200ms+50ms:period=2ms,naks=4"
	// stormFaults adds a 60 ms cut of the checkpoint path (B→A). That is
	// longer than LAMS-DLC's failure timeout (R + C_depth·W_cp ≈ 57 ms),
	// so about one LAMS-DLC run in a thousand declares the link failed
	// and loses datagrams, and the cut sets off a duplicate storm whose
	// size varies more than tenfold between runs. Only the traced run's
	// full-size batch uses it.
	stormFaults = recoveryFaults + "; half@300ms+60ms:dir=ba"
)

// params selects one instance of a workload. seed and the scale fields
// are the inputs; par and the toggles vary how the same inputs run.
type params struct {
	seed uint64
	// par is the worker count of a link batch or the shard count of a
	// constellation.
	par int
	// small shrinks every workload for the package's tests.
	small bool
	// timed routes every error model through the draw timer (traced
	// runs only).
	timed bool
	// noChecker and noFaults drop the §3.2 checker or the fault schedule
	// from link-recovery, for the paired on/off timings.
	noChecker, noFaults bool
	// storm runs link-recovery at full size with stormFaults: one
	// 10,000-datagram run per engine, the regime of LAMS-DLC's duplicate
	// storm.
	storm bool
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// prepare does one op's set-up from p and returns the op.
	prepare func(p params) (*op, error)
	// link marks the workloads that run bench.RunMany batches; recovery
	// the one whose checker and fault injector can be switched off.
	link, recovery bool
	// setupSpan and runSpan name the layer calls an op's spans wrap.
	setupSpan, runSpan string
}

// op is one measured operation: a RunMany batch or a constellation run.
// run is the timed part; outcome condenses and checks what run produced
// and is called after the clock stops.
type op struct {
	run     func()
	outcome func() outcome
}

// outcome is what one op produced, reduced to what the benchmark checks
// and reports.
type outcome struct {
	offered, delivered uint64 // unique datagrams
	digest             [32]byte
	// breaches lists every invariant the op broke (empty when all held).
	breaches []string
	// efficiency and delayMS are the simulated η and enqueue→delivery
	// delay the op reports.
	efficiency, delayMS float64
	links               []bench.RunResult // link workloads, with
	cfgs                []bench.RunConfig // the configs they ran
	report              *shard.Report     // constellation
}

var workloads = []workload{
	{name: "link-sweep", prepare: prepareSweep, link: true,
		setupSpan: "bench.RunConfig", runSpan: "bench.RunMany"},
	{name: "link-recovery", prepare: prepareRecovery, link: true, recovery: true,
		setupSpan: "bench.RunConfig", runSpan: "bench.RunMany"},
	{name: "constellation", prepare: prepareConstellation,
		setupSpan: "shard.Build", runSpan: "shard.Constellation.Run"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// modelSpec returns spec as the batch will use it: validated, and behind
// the draw timer when the run is traced.
func modelSpec(p params, spec string) (string, error) {
	if _, err := channel.ParseModel(spec); err != nil {
		return "", err
	}
	if p.timed {
		return draws.wrap(spec), nil
	}
	return spec, nil
}

// prepareSweep builds the paper's evaluation grid: every engine at
// P_F ∈ {0.01, 0.05} with P_C = P_F/4, a saturating 2,000-datagram offer
// per run, replicated until the batch holds 128 runs. A batch that size
// takes about a quarter second, so the tail percentile sits near p90
// rather than in the last two percent, where host hiccups decide it.
func prepareSweep(p params) (*op, error) {
	reps := 16
	if p.small {
		reps = 1
	}
	var cfgs []bench.RunConfig
	for rep := 0; rep < reps; rep++ {
		for _, pf := range []float64{0.01, 0.05} {
			for _, name := range engineNames {
				c := bench.Base()
				c.Protocol = bench.Protocol(name)
				if p.small {
					c.N = 300
				}
				var err error
				if c.IModelSpec, err = modelSpec(p, fmt.Sprintf("fixed:p=%g", pf)); err != nil {
					return nil, err
				}
				if c.CModelSpec, err = modelSpec(p, fmt.Sprintf("fixed:p=%g", pf/4)); err != nil {
					return nil, err
				}
				c.Seed = bench.DeriveSeed(p.seed, len(cfgs))
				cfgs = append(cfgs, c)
			}
		}
	}
	return linkOp(cfgs, p.par)
}

// prepareRecovery builds runs over bursty I and checkpoint paths with
// Poisson arrivals at about 70% of wire rate, the fault schedule, and the
// §3.2 checker: twelve replicas of each engine offering 5,000 datagrams.
// Offers end at 200 ms, and LAMS-DLC, the fastest engine, is still
// clearing the outage's backlog past 260 ms, so both faults strike every
// run; linkOutcome fails a run where a scheduled fault did not fire.
// With p.storm it is one 10,000-datagram run per engine under
// stormFaults.
func prepareRecovery(p params) (*op, error) {
	sched := recoveryFaults
	reps, n := 12, 5000
	switch {
	case p.small:
		reps = 1
	case p.storm:
		sched, reps, n = stormFaults, 1, 10000
	}
	spec, err := faults.ParseSpec(sched)
	if err != nil {
		return nil, err
	}
	ge, err := modelSpec(p, recoveryGE)
	if err != nil {
		return nil, err
	}
	cfgs := make([]bench.RunConfig, 0, reps*len(engineNames))
	for rep := 0; rep < reps; rep++ {
		for _, name := range engineNames {
			c := bench.Base()
			c.Protocol = bench.Protocol(name)
			c.N = n
			c.OfferInterval = 40 * sim.Microsecond
			c.Poisson = true
			c.IModelSpec, c.CModelSpec = ge, ge
			if !p.noFaults {
				c.Faults = spec
			}
			c.CheckInvariants = !p.noChecker
			c.Seed = bench.DeriveSeed(p.seed, len(cfgs))
			cfgs = append(cfgs, c)
		}
	}
	return linkOp(cfgs, p.par)
}

// linkOp checks that every engine in cfgs is registered and returns the
// op running cfgs as one RunMany batch on par workers.
func linkOp(cfgs []bench.RunConfig, par int) (*op, error) {
	for _, c := range cfgs {
		if _, err := arq.ParseProtocol(string(c.Protocol)); err != nil {
			return nil, err
		}
	}
	var res []bench.RunResult
	return &op{
		run: func() {
			bench.SetWorkers(par)
			res = bench.RunMany(cfgs)
		},
		outcome: func() outcome { return linkOutcome(cfgs, res) },
	}, nil
}

// linkOutcome checks a finished batch and condenses it.
func linkOutcome(cfgs []bench.RunConfig, res []bench.RunResult) outcome {
	o := outcome{links: res, cfgs: cfgs}
	h := sha256.New()
	for i, r := range res {
		c := cfgs[i]
		unique := uint64(c.N - r.Lost)
		o.offered += uint64(c.N)
		o.delivered += unique
		if r.Lost != 0 {
			o.breaches = append(o.breaches, fmt.Sprintf("run %d (%s): %d of %d datagrams lost", i, c.Protocol, r.Lost, c.N))
		}
		if c.Faults != nil {
			if fired := r.Snapshot.Counter("lams_fault_events_total"); fired < uint64(len(c.Faults.Events)) {
				o.breaches = append(o.breaches, fmt.Sprintf("run %d (%s): %d of %d scheduled faults fired", i, c.Protocol, fired, len(c.Faults.Events)))
			}
		}
		for _, v := range r.Violations {
			o.breaches = append(o.breaches, fmt.Sprintf("run %d (%s): checker: %s", i, c.Protocol, v))
		}
		// Every run of a batch offers the same count, so these means are
		// over datagrams as well as over runs.
		o.efficiency += r.Efficiency / float64(len(res))
		o.delayMS += float64(r.MeanDelay) / float64(time.Millisecond) / float64(len(res))
		fmt.Fprintf(h, "%+v\n", r)
	}
	h.Sum(o.digest[:0])
	return o
}

// prepareConstellation builds the 1,024-satellite Walker grid on par
// shards; shard.Build is the set-up, Constellation.Run the op.
func prepareConstellation(p params) (*op, error) {
	sats := 1024
	if p.small {
		sats = 64
	}
	cfg := shard.DefaultConfig(shard.WalkerGrid(sats))
	cfg.Seed = p.seed
	cfg.Shards = p.par
	if p.timed {
		// The registry's fixed model is the FixedProb the probability
		// fields would install, so the trajectory is unchanged.
		var err error
		if cfg.IModelSpec, err = modelSpec(p, fmt.Sprintf("fixed:p=%g", cfg.IErrProb)); err != nil {
			return nil, err
		}
		if cfg.CModelSpec, err = modelSpec(p, fmt.Sprintf("fixed:p=%g", cfg.CErrProb)); err != nil {
			return nil, err
		}
	}
	c, err := shard.Build(cfg)
	if err != nil {
		return nil, err
	}
	var rep shard.Report
	return &op{
		run: func() { rep = c.Run() },
		outcome: func() outcome {
			o := outcome{
				offered:   rep.Offered,
				delivered: rep.Delivered,
				delayMS:   float64(rep.DelayP50) / float64(time.Millisecond),
				report:    &rep,
				digest:    sha256.Sum256([]byte(rep.Render())),
			}
			if rep.Offered == 0 || rep.Delivered != rep.Offered {
				o.breaches = append(o.breaches, fmt.Sprintf("delivered %d of %d datagrams", rep.Delivered, rep.Offered))
			}
			if rep.BitsSent > 0 {
				// Goodput share of the crosslinks: end-to-end payload bits
				// per bit put on any wire.
				o.efficiency = float64(rep.Delivered) * float64(cfg.PayloadBytes) * 8 / float64(rep.BitsSent)
			}
			return o
		},
	}, nil
}
