// Package shard is the conservative parallel simulation engine: it
// partitions one scenario across K worker shards, each owning a private
// sim.Scheduler and the protocol entities homed on its satellites, and
// synchronizes them with lookahead-bounded global rounds.
//
// The synchronization model is the classic conservative BSP window. Let W
// be the minimum propagation delay over every inter-satellite link in the
// scenario (the lookahead). Round k covers simulated time [kW, (k+1)W−1]:
// every shard first drains its mailbox of frames stamped inside the round,
// schedules them as ordinary arrival events, and runs its scheduler to the
// round boundary; a barrier separates rounds. A frame posted during round k
// departs at a clock ≥ kW and arrives ≥ W later, i.e. at ≥ (k+1)W — strictly
// beyond the round — so one barrier per round is sufficient: no shard can
// receive an event in its past, and no null messages are needed.
//
// Determinism is independent of K by construction:
//
//   - Every inter-satellite frame crosses a mailbox, even when both ends
//     happen to live on the same shard, so the event-insertion schedule —
//     and therefore FIFO tie-breaking among equal timestamps — is identical
//     at every shard count.
//   - A mailbox drain sorts by the canonical key (arrival time, lane,
//     per-lane sequence) before scheduling, erasing the nondeterministic
//     order in which concurrent senders appended.
//   - Each shard only ever mutates its own scheduler's state; the only
//     shared structures are the mutex-guarded inboxes.
//
// Under those rules a K-shard run is bit-identical to the 1-shard run of
// the same configuration, which is what the constellation pins assert.
package shard

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/sim"
)

// message is one frame in flight between shards: the in-flight frame, the
// pipe it will re-enter through, and the canonical ordering key.
type message struct {
	at   sim.Time
	pipe *channel.Pipe
	f    *frame.Frame
	lane uint32 // Wire() lane of the posting pipe
	seq  uint64 // per-lane post counter
}

// compare is the canonical drain order: arrival time, then lane, then the
// lane's own FIFO counter. Lanes are unique per pipe and seq unique per
// lane, so the order is total — the sort needs no stability.
func (m message) compare(n message) int {
	if c := cmp.Compare(m.at, n.at); c != 0 {
		return c
	}
	if c := cmp.Compare(m.lane, n.lane); c != 0 {
		return c
	}
	return cmp.Compare(m.seq, n.seq)
}

// Shard is one partition: a scheduler plus the mailbox other shards post
// into. All fields below the inbox are touched only by the shard's own
// round, which runs on one goroutine at a time.
type Shard struct {
	id    int
	sched *sim.Scheduler

	in struct {
		mu   sync.Mutex
		msgs []message
	}

	spare   []message  // retired inbox backing array, swapped back next drain
	pending []message  // posted but not yet due (beyond the round boundary)
	due     []message  // drain scratch
	free    []*message // recycled arrival-event arguments
	deliver func(any)  // deliverMsg bound once, for ScheduleArgDetached
}

// ID returns the shard's index in [0, Engine.Shards()).
func (sh *Shard) ID() int { return sh.id }

// Scheduler returns the shard's private scheduler. Entities homed on the
// shard must be built on it, and it must only be driven through Engine.Run.
func (sh *Shard) Scheduler() *sim.Scheduler { return sh.sched }

// take returns a heap slot for one due message.
func (sh *Shard) take() *message {
	if n := len(sh.free); n > 0 {
		m := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return m
	}
	return new(message)
}

// deliverMsg is the arrival event for one mailbox message: re-enter the
// pipe on the receiving side at the stamped time.
func (sh *Shard) deliverMsg(v any) {
	m := v.(*message)
	p, at, f := m.pipe, m.at, m.f
	m.pipe, m.f = nil, nil
	sh.free = append(sh.free, m)
	p.DeliverInbound(at, f)
}

// round drains the mailbox of everything due by end, schedules it in
// canonical order, and advances the shard's clock to the round boundary.
func (sh *Shard) round(end sim.Time) {
	sh.in.mu.Lock()
	incoming := sh.in.msgs
	sh.in.msgs = sh.spare[:0]
	sh.in.mu.Unlock()
	sh.pending = append(sh.pending, incoming...)
	sh.spare = incoming[:0]

	due := sh.due[:0]
	keep := sh.pending[:0]
	for _, m := range sh.pending {
		if m.at.After(end) {
			keep = append(keep, m)
		} else {
			due = append(due, m)
		}
	}
	sh.pending = keep
	slices.SortFunc(due, message.compare)
	for i := range due {
		m := sh.take()
		*m = due[i]
		sh.sched.ScheduleArgDetached(m.at, sh.deliver, m)
	}
	sh.due = due[:0]

	sh.sched.RunUntil(end)
}

// Engine couples K shards to one lookahead window and runs them in rounds.
type Engine struct {
	shards []*Shard
	window sim.Duration
}

// New builds an engine of k shards with the given lookahead window — the
// minimum propagation delay over every wired pipe, which the scenario
// builder must establish from its own geometry. The window is the engine's
// correctness contract: Wire panics at runtime if any frame undercuts it.
func New(k int, window sim.Duration) *Engine {
	if k < 1 {
		panic("shard: need at least one shard")
	}
	if window <= 0 {
		panic("shard: lookahead window must be positive")
	}
	e := &Engine{shards: make([]*Shard, k), window: window}
	for i := range e.shards {
		sh := &Shard{id: i, sched: sim.NewScheduler()}
		sh.deliver = sh.deliverMsg
		e.shards[i] = sh
	}
	return e
}

// Shards returns K.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns shard i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Window returns the lookahead window.
func (e *Engine) Window() sim.Duration { return e.window }

// Executed sums events executed across all shards. Because every
// inter-satellite frame is mailboxed at every K, the sum is invariant
// across shard counts — a cheap canary for determinism regressions.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.sched.Executed()
	}
	return n
}

// Wire routes p's deliveries through dst's mailbox. src is the shard that
// owns p's transmit side (whose scheduler p was built on); dst owns the
// receive side. lane must be unique per wired pipe — it is the tiebreak
// that makes drains deterministic. Every inter-satellite pipe must be
// wired, including pipes whose two ends share a shard: uniform mailboxing
// is what keeps the event schedule identical at every K.
func (e *Engine) Wire(src, dst *Shard, p *channel.Pipe, lane uint32) {
	window := e.window
	var seq uint64
	p.SetRemote(func(at sim.Time, f *frame.Frame) {
		if now := src.sched.Now(); at.Before(now.Add(window)) {
			panic(fmt.Sprintf("shard: lookahead violation on lane %d: arrival %v < %v + window %v",
				lane, at, now, window))
		}
		seq++
		m := message{at: at, pipe: p, f: f, lane: lane, seq: seq}
		dst.in.mu.Lock()
		dst.in.msgs = append(dst.in.msgs, m)
		dst.in.mu.Unlock()
	})
}

// Run executes the simulation to the horizon in conservative rounds and
// returns the number of rounds run. stop, if non-nil, is evaluated on the
// coordinating goroutine at every round barrier (all shards quiescent, so
// it may read any shard-owned state) and ends the run early when true.
//
// At K == 1 the rounds run inline on the caller's goroutine; otherwise one
// long-lived worker per shard executes its rounds, with a channel barrier
// between rounds.
func (e *Engine) Run(horizon sim.Duration, stop func() bool) int {
	final := sim.Time(0).Add(horizon)
	w := int64(e.window)
	rounds := 0

	roundEnd := func() sim.Time {
		end := sim.Time(w*int64(rounds) - 1)
		if !end.Before(final) {
			end = final
		}
		return end
	}

	if len(e.shards) == 1 {
		sh := e.shards[0]
		for {
			rounds++
			end := roundEnd()
			sh.round(end)
			if stop != nil && stop() {
				break
			}
			if end == final {
				break
			}
		}
		return rounds
	}

	starts := make([]chan sim.Time, len(e.shards))
	done := make(chan struct{}, len(e.shards))
	for i, sh := range e.shards {
		starts[i] = make(chan sim.Time, 1)
		go func(sh *Shard, c <-chan sim.Time) {
			for end := range c {
				sh.round(end)
				done <- struct{}{}
			}
		}(sh, starts[i])
	}
	defer func() {
		for _, c := range starts {
			close(c)
		}
	}()

	for {
		rounds++
		end := roundEnd()
		for _, c := range starts {
			c <- end
		}
		for range e.shards {
			<-done
		}
		if stop != nil && stop() {
			break
		}
		if end == final {
			break
		}
	}
	return rounds
}

// DropInflight releases every frame still crossing a mailbox back to the
// frame pool. Call it once after Run: frames cut off by the horizon are
// owned by nobody else.
func (e *Engine) DropInflight() {
	for _, sh := range e.shards {
		sh.in.mu.Lock()
		msgs := sh.in.msgs
		sh.in.msgs = nil
		sh.in.mu.Unlock()
		for _, m := range msgs {
			frame.Put(m.f)
		}
		for _, m := range sh.pending {
			frame.Put(m.f)
		}
		sh.pending = sh.pending[:0]
	}
}
