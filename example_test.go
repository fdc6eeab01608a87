package lams_test

import (
	"fmt"
	"time"

	lams "repro"
	"repro/internal/analysis"
	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/fec"
	"repro/internal/lamsdlc"
	"repro/internal/orbit"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Quickstart, the one-screen version of the paper: move 2,000 datagrams
// across a simulated 4,000 km laser crosslink with every registered engine
// and compare. The NAK-based LAMS-DLC keeps the pipe full while the
// positive-ack baselines stall every window; the Section 4 closed forms
// predict the same gap.
func Example() {
	link := lams.LinkParams{
		RateBps:    300e6, // 300 Mbps laser crosslink
		DistanceKm: 4000,
		BER:        1e-6, // post-interleaving channel BER
	}
	const (
		n       = 2000
		payload = 1024
	)
	fmt.Printf("link: 300 Mbps, 4000 km (one-way %v), BER 1e-6\n", link.OneWay())
	fmt.Printf("transfer: %d datagrams x %d B\n\n", n, payload)

	elapsed := map[string]time.Duration{}
	for _, name := range arq.Protocols() {
		eng, err := arq.DefaultEngine(name, 2*link.OneWay())
		if err != nil {
			panic(err)
		}
		simu := lams.NewSimulation(1)
		l := simu.NewLink(link)
		delivered := 0
		var last lams.Time
		pair := simu.NewPair(eng, l, func(now lams.Time, _ lams.Datagram, _ uint32) {
			delivered++
			last = now
		}, nil)
		// Offer everything at once; a refused datagram is retried every
		// millisecond until the engine's sending buffer takes it.
		workload.NewSaturating(simu.Scheduler(), pair.Enqueue, time.Millisecond, payload, n)
		simu.RunFor(time.Minute)

		t := time.Duration(last)
		elapsed[name] = t
		fmt.Printf("%-9s delivered %d/%d in %v  efficiency %.3f  retransmissions %d\n",
			eng.Display(), delivered, n, t.Round(time.Microsecond),
			float64(delivered*payload*8)/(link.RateBps*t.Seconds()),
			pair.Metrics().Retransmissions.Value())
	}
	fmt.Printf("\nspeedup: LAMS-DLC finishes %.1fx faster than SR-HDLC on this link\n",
		elapsed["srhdlc"].Seconds()/elapsed["lams"].Seconds())

	p := lams.AnalysisFor(link, lams.DefaultsFor(link), payload, 64, 13*time.Millisecond)
	fmt.Printf("analysis: eta_LAMS=%.3f eta_HDLC=%.3f at N=%d (Section 4 model)\n",
		p.EtaLAMS(n), p.EtaHDLC(n, 0), n)
	// Output:
	// link: 300 Mbps, 4000 km (one-way 13.342563ms), BER 1e-6
	// transfer: 2000 datagrams x 1024 B
	//
	// GBN-HDLC  delivered 2000/2000 in 896.591ms  efficiency 0.061  retransmissions 0
	// LAMS-DLC  delivered 2000/2000 in 69.085ms  efficiency 0.791  retransmissions 0
	// SR-HDLC   delivered 2000/2000 in 896.591ms  efficiency 0.061  retransmissions 0
	// SS-ARQ    delivered 2000/2000 in 3.326239s  efficiency 0.016  retransmissions 0
	//
	// speedup: LAMS-DLC finishes 13.0x faster than SR-HDLC on this link
	// analysis: eta_LAMS=0.637 eta_HDLC=0.061 at N=2000 (Section 4 model)
}

// Crosslink, the paper's motivating scenario: two satellites in crossing
// LEO planes acquire line of sight for a few minutes (the short link
// lifetime of §2.1), the laser channel suffers random errors and
// tracking-loss bursts, and the propagation delay follows the changing
// range. LAMS-DLC carries traffic offered at 80% of the wire rate through
// the first seconds of the pass, across one burst.
func Example_crosslink() {
	// Geometry: 1000 km altitude, 60° inclination, planes 90° apart.
	ol := orbit.CrossPlanePair(1000e3, 60, 90, 0)
	w := ol.Windows(2*ol.A.Period(), 10*time.Second)[0]
	st := ol.Stats(w, time.Second)
	fmt.Printf("visibility window: %v (link lifetime %v)\n", w, w.Duration().Round(time.Second))
	fmt.Printf("range: %.0f–%.0f km (round trip %v–%v)\n",
		st.MinM/1e3, st.MaxM/1e3,
		2*orbit.PropagationDelay(st.MinM), 2*orbit.PropagationDelay(st.MaxM))
	fmt.Printf("HDLC would need t_out = R + α with α ≥ %v on this pass\n\n", st.TimeoutAlpha())

	// Shift the orbit epoch so simulation time 0 is window start.
	shifted := ol
	shifted.A.PhaseRad += shifted.A.MeanMotion() * w.Start.Seconds()
	shifted.B.PhaseRad += shifted.B.MeanMotion() * w.Start.Seconds()

	link := lams.LinkParams{
		RateBps: 300e6,
		Orbit:   &shifted,
		BER:     1e-6,
		Burst: &channel.BurstTrain{ // tracking-loss bursts every 20 s
			Period:   20 * time.Second,
			BurstLen: 25 * time.Millisecond,
			Offset:   5 * time.Second,
		},
	}
	cfg := lams.DefaultsFor(link)
	cfg.CumulationDepth = 4 // C_depth·W_cp = 40ms > burst length: §3.3 condition
	cfg.LinkLifetime = w.Duration()

	simu := lams.NewSimulation(7)
	l := simu.NewLink(link)
	var delivered, bytes int
	pair := simu.NewPair(arq.MustEngine("lams", cfg), l, func(_ lams.Time, dg lams.Datagram, _ uint32) {
		delivered++
		bytes += len(dg.Payload)
	}, func(now lams.Time, reason string) {
		fmt.Printf("!! link failure declared at %v: %s\n", now, reason)
	})

	const payload = 1024
	interval := sim.Duration(float64((payload+21)*8) / (0.8 * link.RateBps) * float64(sim.Second))
	gen := workload.NewConstantRate(simu.Scheduler(), pair.Enqueue, interval, payload, -1)

	const horizon = 6 * time.Second
	for t := time.Duration(0); t < horizon; t += 2 * time.Second {
		simu.RunFor(2 * time.Second)
		m := pair.Metrics()
		fmt.Printf("t=%-3v delivered=%-6d retx=%-4d enforced-recoveries=%d holding(mean)=%v\n",
			t+2*time.Second, delivered, m.Retransmissions.Value(),
			m.Failures.Value(), m.MeanHoldingTime().Round(time.Millisecond))
	}
	gen.Stop()
	simu.RunFor(5 * time.Second) // drain

	m := pair.Metrics()
	fmt.Printf("\nfirst %v of a %v pass: %d datagrams (%.1f MB)\n",
		horizon, w.Duration().Round(time.Second), delivered, float64(bytes)/1e6)
	fmt.Printf("goodput %.1f Mbit/s of %s (efficiency %.3f)\n",
		float64(bytes)*8/horizon.Seconds()/1e6, sim.FormatRate(link.RateBps),
		float64(bytes)*8/(link.RateBps*horizon.Seconds()))
	fmt.Printf("transmissions: %d first, %d retransmitted; %d checkpoints; zero loss: %v\n",
		m.FirstTx.Value(), m.Retransmissions.Value(), m.Checkpoints.Value(),
		uint64(delivered) == m.Delivered.Value())
	// Output:
	// visibility window: [16m43.600463866s, 35m45.385131835s] (19m1.784667969s) (link lifetime 19m2s)
	// range: 5212–7132 km (round trip 34.771282ms–47.57935ms)
	// HDLC would need t_out = R + α with α ≥ 6.404032ms on this pass
	//
	// t=2s  delivered=56734  retx=0    enforced-recoveries=0 holding(mean)=53ms
	// t=4s  delivered=114152 retx=0    enforced-recoveries=0 holding(mean)=53ms
	// t=6s  delivered=171570 retx=718  enforced-recoveries=0 holding(mean)=53ms
	//
	// first 6s of a 19m2s pass: 172251 datagrams (176.4 MB)
	// goodput 235.2 Mbit/s of 300 Mbps (efficiency 0.784)
	// transmissions: 172251 first, 718 retransmitted; 1100 checkpoints; zero loss: true
}

// Flow control, §3.4's Stop-Go mechanism: the receiver processes slower
// than the wire into a small buffer. It asserts Stop-Go, the sender walks
// its rate down multiplicatively, overflow discards are NAKed and
// retransmitted (nothing is lost), and the rate recovers between bursts.
func Example_flowcontrol() {
	link := lams.LinkParams{RateBps: 300e6, DistanceKm: 2000}
	cfg := lams.DefaultsFor(link)
	cfg.CheckpointInterval = 5 * time.Millisecond
	cfg.RecvBufferCap = 32
	cfg.ProcTime = 100 * time.Microsecond // ~3.6x slower than the wire

	simu := lams.NewSimulation(5)
	l := simu.NewLink(link)
	delivered := 0
	pair := simu.NewPair(arq.MustEngine("lams", cfg), l, func(_ lams.Time, _ lams.Datagram, _ uint32) {
		delivered++
	}, nil).(*lamsdlc.Pair) // Stop-Go state is LAMS-DLC's own surface

	// A 300 ms on / 200 ms off bursty source at full wire rate.
	const payload = 1024
	interval := sim.Duration(float64((payload+21)*8) / link.RateBps * float64(sim.Second))
	gen := workload.NewOnOff(simu.Scheduler(), pair.Enqueue,
		interval, 300*time.Millisecond, 200*time.Millisecond, payload, -1)

	fmt.Println("t      delivered  rate   stop-go  recvQ  dropped  retx")
	for step := 0; step < 10; step++ {
		simu.RunFor(100 * time.Millisecond)
		m := pair.Metrics()
		fmt.Printf("%-6v %-10d %-6.3f %-8v %-6d %-8d %d\n",
			simu.Now(), delivered, pair.RateFraction(),
			pair.Receiver.StopGoAsserted(), pair.Receiver.QueueLen(),
			m.RecvDropped.Value(), m.Retransmissions.Value())
	}
	gen.Stop()
	simu.RunFor(5 * time.Second)

	m := pair.Metrics()
	fmt.Printf("\nsubmitted=%d delivered=%d, zero loss: %v\n",
		m.Submitted.Value(), delivered, uint64(delivered) == m.Submitted.Value())
	fmt.Printf("%d rate adjustments; %d overflow discards, all recovered by %d retransmissions\n",
		m.RateChanges.Value(), m.RecvDropped.Value(), m.Retransmissions.Value())
	// Output:
	// t      delivered  rate   stop-go  recvQ  dropped  retx
	// 100ms  713        0.031  false    1      893      893
	// 200ms  1363       0.016  true     18     1106     1090
	// 300ms  1836       0.347  true     31     1193     1106
	// 400ms  2315       0.284  false    1      1320     1320
	// 500ms  2933       0.116  false    0      1534     1534
	// 600ms  3608       0.038  false    0      1748     1748
	// 700ms  4288       0.016  false    10     1961     1961
	// 800ms  4775       0.173  true     32     2103     1991
	// 900ms  5249       0.355  false    1      2175     2175
	// 1s     5825       0.116  false    0      2388     2388
	//
	// submitted=21532 delivered=21532, zero loss: true
	// 692 rate adjustments; 7005 overflow discards, all recovered by 7005 retransmissions
}

// Evaluating the paper's closed forms directly: the headline comparison at
// one operating point.
func ExampleAnalysisParams() {
	p := analysis.Params{
		PF: 0.05, PC: 0.0125,
		R: 0.0267, Icp: 0.010, Cdepth: 3, W: 64,
		Tf: 8360 / 300e6, Tc: 160 / 300e6, Tproc: 10e-6,
		Alpha: 0.013,
	}
	fmt.Printf("s_LAMS=%.3f s_HDLC=%.3f\n", p.SBarLAMS(), p.SBarHDLC())
	fmt.Printf("B_LAMS=%.0f frames, B_HDLC unbounded=%v\n", p.BLAMS(), p.BHDLC() > 1e300)
	fmt.Printf("eta_LAMS(4000)=%.2f eta_HDLC(4000)=%.2f\n",
		p.EtaLAMS(4000), p.EtaHDLC(4000, analysis.PaperPrinted))
	// Output:
	// s_LAMS=1.053 s_HDLC=1.066
	// B_LAMS=1204 frames, B_HDLC unbounded=true
	// eta_LAMS(4000)=0.74 eta_HDLC(4000)=0.06
}

// The FEC algebra of the link model (assumption 4): the same BER maps to
// very different residual frame error probabilities for I-frames and
// control frames.
func ExampleAnalysisParams_fec() {
	ber := 1e-4
	pf := fec.Hamming74.FrameErrorProb(ber, 8360)
	pc := fec.Repetition3.FrameErrorProb(ber, 160)
	fmt.Printf("P_F=%.2e P_C=%.2e ratio=%.0fx\n", pf, pc, pf/pc)
	// Output:
	// P_F=4.39e-04 P_C=4.80e-06 ratio=91x
}
