package node

import (
	"fmt"
	"sort"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/resequence"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Stats counts network-layer activity at one node.
type Stats struct {
	Originated stats.Counter // packets this node sourced
	Forwarded  stats.Counter // packets relayed toward another node
	Delivered  stats.Counter // packets released in order to OnDeliver
	NoRoute    stats.Counter // packets dropped for lack of a route
	BufferFull stats.Counter // packets refused by a link's sending buffer
	LinkDown   stats.Counter // packets dropped on a failed link
	Rerouted   stats.Counter // packets reclaimed from failed links and re-dispatched
}

// outLink is the transmitting side of one neighbor adjacency.
type outLink struct {
	pair      arq.Pair
	nextID    uint64 // per-link DLC datagram IDs
	failed    bool
	reclaimed bool // stranded datagrams already pulled back
}

// Node is a store-and-forward satellite DCE.
type Node struct {
	id    ID
	sched *sim.Scheduler
	eng   arq.Engine

	links  map[ID]*outLink
	routes map[ID]ID // destination -> next hop
	reseq  map[ID]*resequence.Resequencer

	// OnDeliver receives in-order, exactly-once packets addressed to this
	// node. May be nil. The packet's Payload aliases wire bytes other
	// entities may still hold (a retransmission buffer upstream): it may be
	// retained but must not be written.
	OnDeliver func(now sim.Time, pkt Packet)

	// pendingReroute holds the wire bytes of packets waiting for the next
	// RecomputeRoutes pass: reclaimed from failed links, or refused by the
	// next hop while in transit.
	pendingReroute [][]byte

	seqTo map[ID]uint64 // per-destination originating sequence numbers

	Stats Stats
}

// New constructs a node. eng parameterizes every DLC link the node
// terminates: any registered engine works, so an HDLC baseline can run the
// same multi-hop topologies as LAMS-DLC.
func New(sched *sim.Scheduler, id ID, eng arq.Engine) *Node {
	if err := eng.Validate(); err != nil {
		panic(err)
	}
	return &Node{
		id:     id,
		sched:  sched,
		eng:    eng,
		links:  make(map[ID]*outLink),
		routes: make(map[ID]ID),
		reseq:  make(map[ID]*resequence.Resequencer),
		seqTo:  make(map[ID]uint64),
	}
}

// ID returns the node's identity.
func (n *Node) ID() ID { return n.id }

// SetRoute installs a static next-hop route.
func (n *Node) SetRoute(dst, nextHop ID) { n.routes[dst] = nextHop }

// Neighbors lists directly connected nodes, sorted.
func (n *Node) Neighbors() []ID {
	out := make([]ID, 0, len(n.links))
	for id := range n.links {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkMetrics exposes the DLC metrics of the outgoing link to a neighbor.
func (n *Node) LinkMetrics(neighbor ID) *arq.Metrics {
	if l, ok := n.links[neighbor]; ok {
		return l.pair.Metrics()
	}
	return nil
}

// Connect joins a and b with a pair of unidirectional DLC sessions
// (data a→b and data b→a), each over its own full-duplex simulated link
// with the given pipe configuration, and wires each session's deliveries
// into the receiving node's network layer. It returns the two underlying
// links (a→b data first) so tests can inject failures.
func Connect(sched *sim.Scheduler, a, b *Node, pipe channel.PipeConfig, rng *sim.RNG) (abData, baData *channel.Link) {
	abData = channel.NewLink(sched, pipe, rng.Split())
	baData = channel.NewLink(sched, pipe, rng.Split())
	a.attach(b, abData)
	b.attach(a, baData)
	return abData, baData
}

// attach creates the outgoing DLC session toward neighbor over link. The
// session's receiver logically lives at the neighbor: its deliveries feed
// the neighbor's network layer.
func (n *Node) attach(neighbor *Node, link *channel.Link) {
	ol := &outLink{}
	ol.pair = n.eng.NewPair(n.sched, link,
		func(now sim.Time, dg arq.Datagram, _ uint32) {
			neighbor.handleArrival(now, dg)
		},
		func(now sim.Time, reason string) {
			ol.failed = true
		})
	n.links[neighbor.id] = ol
	ol.pair.Start()
}

// AttachSplit is attach for topologies partitioned across schedulers (the
// shard engine): the outgoing session's sender entity runs on this node's
// scheduler, its receiver entity — and therefore the deliver callback that
// feeds neighbor's network layer — on the neighbor's. eng is per-adjacency
// (crosslink round trips differ link to link, so the node-wide engine is
// only a default). The caller is responsible for routing link's pipes
// between the two shards (channel.Pipe.SetRemote) before the run starts.
// The wired pair is returned for report collection.
func (n *Node) AttachSplit(neighbor *Node, link *channel.Link, eng arq.Engine) arq.Pair {
	ol := &outLink{}
	ol.pair = eng.NewSplitPair(n.sched, neighbor.sched, link,
		func(now sim.Time, dg arq.Datagram, _ uint32) {
			neighbor.handleArrival(now, dg)
		},
		func(now sim.Time, reason string) {
			ol.failed = true
		})
	n.links[neighbor.id] = ol
	ol.pair.Start()
	return ol.pair
}

// Send originates a packet to dst. It reports whether the packet was
// accepted by the first-hop link (or delivered locally).
//
// The packet is encoded here, once: every hop after this one relays the
// same wire bytes, and the destination resequences them as they are.
func (n *Node) Send(dst ID, payload []byte) bool {
	seq := n.seqTo[dst]
	wire := Packet{Src: n.id, Dst: dst, Seq: seq, Payload: payload}.Encode()
	n.seqTo[dst]++
	n.Stats.Originated.Inc()
	if dst == n.id {
		n.deliverLocal(n.sched.Now(), n.id, seq, wire)
		return true
	}
	return n.dispatch(dst, wire)
}

// dispatch routes an encoded packet addressed to dst and enqueues its wire
// bytes on the next-hop link.
func (n *Node) dispatch(dst ID, wire []byte) bool {
	nh, ok := n.routes[dst]
	if !ok {
		n.Stats.NoRoute.Inc()
		return false
	}
	ol, ok := n.links[nh]
	if !ok {
		n.Stats.NoRoute.Inc()
		return false
	}
	if ol.failed {
		n.Stats.LinkDown.Inc()
		return false
	}
	if !ol.pair.Enqueue(arq.Datagram{ID: ol.nextID, Payload: wire}) {
		n.Stats.BufferFull.Inc()
		return false
	}
	ol.nextID++
	return true
}

// handleArrival processes a datagram delivered by one of this node's
// incoming DLC sessions: deliver locally or forward immediately (the
// paper's relaxed in-sequence model — no reordering at transit nodes).
//
// Forwarding is zero-copy: the delivered payload is the packet's wire
// encoding, and it goes out on the next hop unchanged. That is sound
// because payload bytes are immutable once handed to a pipe (the
// channel.Pipe.Send and arq.DeliverFunc contracts), so the upstream
// sender's retransmission buffer and the next hop may share one slice.
func (n *Node) handleArrival(now sim.Time, dg arq.Datagram) {
	pkt, err := DecodePacket(dg.Payload)
	if err != nil {
		return // malformed; a real node would log and count
	}
	if pkt.Dst == n.id {
		n.deliverLocal(now, pkt.Src, pkt.Seq, dg.Payload)
		return
	}
	n.Stats.Forwarded.Inc()
	if !n.dispatch(pkt.Dst, dg.Payload) {
		// The next hop refused (failed link, buffer full, or no route).
		// A transit node has no upstream to push back on — the DLC behind
		// us already released the frame — so park the packet for the next
		// route recomputation rather than lose it.
		n.pendingReroute = append(n.pendingReroute, dg.Payload)
	}
}

// deliverLocal resequences per source and releases in order. wire is the
// packet's encoding; the resequencer holds it as is.
func (n *Node) deliverLocal(now sim.Time, src ID, seq uint64, wire []byte) {
	rs, ok := n.reseq[src]
	if !ok {
		rs = resequence.New(func(now sim.Time, dg arq.Datagram) {
			n.Stats.Delivered.Inc()
			if n.OnDeliver != nil {
				p, err := DecodePacket(dg.Payload)
				if err != nil {
					return
				}
				n.OnDeliver(now, p)
			}
		})
		n.reseq[src] = rs
	}
	rs.Push(now, arq.Datagram{ID: seq, Payload: wire})
}

// Resequencer exposes the per-source resequencer (nil if none yet), for
// buffer-occupancy measurements.
func (n *Node) Resequencer(src ID) *resequence.Resequencer { return n.reseq[src] }

// Summary renders headline counters.
func (n *Node) Summary() string {
	return fmt.Sprintf("node %d: orig=%d fwd=%d dlv=%d noroute=%d full=%d down=%d",
		n.id, n.Stats.Originated.Value(), n.Stats.Forwarded.Value(),
		n.Stats.Delivered.Value(), n.Stats.NoRoute.Value(),
		n.Stats.BufferFull.Value(), n.Stats.LinkDown.Value())
}

// Line builds a chain topology n0 — n1 — … — n(k−1) with static shortest
// routes, connecting every adjacent pair with the given pipe configuration.
// It returns the nodes and the data links (2(k−1) of them, in connect
// order: forward then reverse per adjacency).
func Line(sched *sim.Scheduler, k int, eng arq.Engine, pipe channel.PipeConfig, rng *sim.RNG) ([]*Node, []*channel.Link) {
	if k < 2 {
		panic("node: line topology needs at least 2 nodes")
	}
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = New(sched, ID(i), eng)
	}
	var links []*channel.Link
	for i := 0; i+1 < k; i++ {
		ab, ba := Connect(sched, nodes[i], nodes[i+1], pipe, rng)
		links = append(links, ab, ba)
	}
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if j > i {
				nodes[i].SetRoute(ID(j), ID(i+1))
			} else {
				nodes[i].SetRoute(ID(j), ID(i-1))
			}
		}
	}
	return nodes, links
}
