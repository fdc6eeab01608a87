package node

import (
	"sort"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/sim"
)

// This file adds the minimal network-layer machinery a LAMS constellation
// needs around the DLC: topology builders beyond a line, shortest-path
// route computation over the *alive* adjacencies, and reclamation of
// traffic stranded in a failed link's sending buffer (§3.3: "when an
// unexpected unrecoverable link failure occurs, the sender ... can recover
// I-frames without loss"; the recovered datagrams re-enter the network
// layer and ride the recomputed routes).

// LinkAlive reports whether the outgoing DLC session toward neighbor is
// still usable (no declared link failure).
func (n *Node) LinkAlive(neighbor ID) bool {
	ol, ok := n.links[neighbor]
	return ok && !ol.failed
}

// reclaimFailedLinks moves the wire bytes of packets stranded on failed
// links into pendingReroute, where the next RecomputeRoutes pass
// re-dispatches them.
func (n *Node) reclaimFailedLinks() {
	for _, ol := range n.links {
		if !ol.failed || ol.reclaimed {
			continue
		}
		ol.reclaimed = true
		for _, dg := range ol.pair.Reclaim() {
			if _, err := DecodePacket(dg.Payload); err != nil {
				continue
			}
			n.pendingReroute = append(n.pendingReroute, dg.Payload)
		}
	}
}

// flushPending re-dispatches parked packets over the current routes,
// without re-encoding them.
func (n *Node) flushPending() {
	pending := n.pendingReroute
	n.pendingReroute = nil
	for _, wire := range pending {
		n.Stats.Rerouted.Inc()
		pkt, _ := DecodePacket(wire) // validated when parked
		if pkt.Dst == n.id {
			n.deliverLocal(n.sched.Now(), pkt.Src, pkt.Seq, wire)
			continue
		}
		if !n.dispatch(pkt.Dst, wire) {
			// Still unroutable: keep for the next recompute.
			n.pendingReroute = append(n.pendingReroute, wire)
		}
	}
}

// RecomputeRoutes rebuilds every node's next-hop table by breadth-first
// search over the alive adjacencies, then re-dispatches any traffic
// reclaimed from failed links. Call it after injecting failures (a real
// constellation would run it from its topology manager on every pass
// schedule or failure notification).
func RecomputeRoutes(nodes []*Node) {
	byID := make(map[ID]*Node, len(nodes))
	for _, n := range nodes {
		byID[n.id] = n
		n.reclaimFailedLinks()
	}
	// Alive adjacency, deterministic order.
	adj := make(map[ID][]ID, len(nodes))
	for _, n := range nodes {
		var out []ID
		for _, nb := range n.Neighbors() {
			peer, ok := byID[nb]
			if !ok {
				continue
			}
			// The adjacency is usable only if both directions live (each
			// direction is its own DLC session).
			if n.LinkAlive(nb) && peer.LinkAlive(n.id) {
				out = append(out, nb)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		adj[n.id] = out
	}
	// BFS from every node.
	for _, src := range nodes {
		routes := make(map[ID]ID)
		type hop struct {
			id    ID
			first ID // first hop on the path from src
		}
		visited := map[ID]bool{src.id: true}
		var queue []hop
		for _, nb := range adj[src.id] {
			visited[nb] = true
			routes[nb] = nb
			queue = append(queue, hop{nb, nb})
		}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			for _, nb := range adj[h.id] {
				if visited[nb] {
					continue
				}
				visited[nb] = true
				routes[nb] = h.first
				queue = append(queue, hop{nb, h.first})
			}
		}
		src.routes = routes
	}
	for _, n := range nodes {
		n.flushPending()
	}
}

// Ring builds a k-node ring with shortest-path routes in both directions.
// It returns the nodes and the data links in adjacency order (forward then
// reverse per adjacency, adjacency i joining node i and node (i+1) mod k).
func Ring(sched *sim.Scheduler, k int, eng arq.Engine, pipe channel.PipeConfig, rng *sim.RNG) ([]*Node, []*channel.Link) {
	if k < 3 {
		panic("node: ring topology needs at least 3 nodes")
	}
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = New(sched, ID(i), eng)
	}
	var links []*channel.Link
	for i := 0; i < k; i++ {
		ab, ba := Connect(sched, nodes[i], nodes[(i+1)%k], pipe, rng)
		links = append(links, ab, ba)
	}
	RecomputeRoutes(nodes)
	return nodes, links
}
