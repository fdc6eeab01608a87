package node_test

import (
	"fmt"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/lamsdlc"
	"repro/internal/node"
	"repro/internal/sim"
)

// A five-satellite ring under way. Traffic streams from satellite 0 to
// satellite 2 over the short arc; mid-transfer the 1↔2 crosslink is lost.
// The DLC on the dead link declares failure within its §3.2 bound,
// RecomputeRoutes rebuilds the tables over the surviving adjacencies,
// traffic (including the datagrams stranded in the dead link's sending
// buffer) swings onto the long arc 0→4→3→2, and the destination still sees
// every packet exactly once, in order.
func ExampleRecomputeRoutes() {
	sched := sim.NewScheduler()
	cfg := lamsdlc.Defaults(13 * time.Millisecond)
	cfg.CheckpointInterval = 5 * time.Millisecond
	pipe := channel.PipeConfig{
		RateBps: 300e6,
		Delay:   channel.ConstantDelay(6670 * time.Microsecond), // ~2,000 km hops
		IModel:  channel.FixedProb{P: 0.05},
		CModel:  channel.FixedProb{P: 0.01},
	}

	nodes, links := node.Ring(sched, 5, arq.MustEngine("lams", cfg), pipe, sim.NewRNG(31))
	delivered, misordered := 0, 0
	var lastSeq uint64
	nodes[2].OnDeliver = func(_ sim.Time, p node.Packet) {
		if delivered > 0 && p.Seq != lastSeq+1 {
			misordered++
		}
		lastSeq = p.Seq
		delivered++
	}

	const n = 20000
	sent := 0
	var feed func()
	feed = func() {
		if sent < n {
			nodes[0].Send(2, []byte(fmt.Sprintf("telemetry %05d", sent)))
			sent++
			sched.ScheduleAfter(100*time.Microsecond, feed)
		}
	}
	sched.ScheduleAfter(0, feed)

	report := func(tag string) {
		fmt.Printf("%-26s delivered=%-6d via1=%-6d via4=%-6d rerouted=%d\n",
			tag, delivered,
			nodes[1].Stats.Forwarded.Value(), nodes[4].Stats.Forwarded.Value(),
			nodes[0].Stats.Rerouted.Value()+nodes[1].Stats.Rerouted.Value())
	}
	sched.RunFor(500 * time.Millisecond)
	report("steady state (short arc):")

	// Tracking loss on the 1<->2 adjacency (both data directions).
	links[2].Fail()
	links[3].Fail()
	sched.RunFor(300 * time.Millisecond) // DLC failure detection runs
	report("after losing 1<->2:")

	node.RecomputeRoutes(nodes)
	sched.RunFor(3 * time.Second)
	report("after RecomputeRoutes:")

	fmt.Printf("\n%d/%d delivered exactly once in order (misordered=%d)\n", delivered, n, misordered)
	for _, nd := range nodes {
		fmt.Println(nd.Summary())
	}
	// Output:
	// steady state (short arc):  delivered=4714   via1=4930   via4=0      rerouted=0
	// after losing 1<->2:        delivered=4714   via1=7926   via4=0      rerouted=0
	// after RecomputeRoutes:     delivered=20000  via1=8001   via4=15243  rerouted=3169
	//
	// 20000/20000 delivered exactly once in order (misordered=0)
	// node 0: orig=20000 fwd=3244 dlv=0 noroute=0 full=0 down=0
	// node 1: orig=0 fwd=8001 dlv=0 noroute=0 full=0 down=2531
	// node 2: orig=0 fwd=0 dlv=20000 noroute=0 full=0 down=0
	// node 3: orig=0 fwd=15243 dlv=0 noroute=0 full=0 down=0
	// node 4: orig=0 fwd=15243 dlv=0 noroute=0 full=0 down=0
}
