// Package faults is the deterministic fault-injection harness for the
// recovery machinery: it scripts link outages (full and half-duplex, so
// checkpoints can die while I-frames survive), NAK/checkpoint storms,
// burst-loss episodes, clock-skew windows, handover cut-overs, and — since
// the self-stabilization work — state-corruption attacks (scramble of live
// engine state, ghost-frame forgery, bounded non-FIFO reordering) against a
// channel.Link. Legacy kinds are seed-free schedules — same spec, same run,
// byte for byte, at any worker count; the scramble/ghost adversaries draw
// from a dedicated RNG stream the harness splits only when a schedule needs
// one, so legacy runs keep their exact historical draw sequences.
//
// A Spec is a semicolon-separated list of events:
//
//	kind@start[+dur][:key=value,...]
//
// e.g. "half@2s+500ms:dir=ba; storm@4s+200ms:period=2ms,naks=4". See
// ParseSpec for the kinds and their parameters, and DESIGN.md §9 for the
// fault model. The Injector arms a spec against a run; the Checker
// (checker.go) asserts the paper's §3.2 reliability contract under it.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Kind enumerates the fault classes.
type Kind uint8

// Fault kinds.
const (
	// Outage kills both directions for the duration.
	Outage Kind = iota
	// HalfDuplex kills one direction (param dir=ab|ba, default ba — the
	// checkpoint blackout: I-frames survive, acknowledgement dies).
	HalfDuplex
	// Storm injects spurious control frames into one direction every
	// period (params dir=ab|ba default ba, period default W_cp-ish 1ms,
	// naks=N spurious NAK count per frame, serial=S stale serial,
	// enforced=true to forge Enforced-NAKs). Injected frames consume real
	// wire time, so a storm is also a bandwidth attack on control traffic.
	Storm
	// Burst overlays recurring burst-loss episodes on a direction's error
	// process (params dir=ab|ba|both default both, len=burst length
	// default 1ms, gap=inter-burst quiet time default 9ms): every frame
	// whose wire occupancy overlaps a burst is marked corrupted.
	Burst
	// Skew re-times the receiver's checkpoint ticker by factor (param
	// factor, default 1.5) for the duration, then restores it: the
	// sender's silence windows must absorb the drift without spurious
	// recovery or failure.
	Skew
	// Handover models an orbit-driven cut-over: both beams drop for the
	// duration (default 30ms) — a short, sharp outage with its own kind so
	// schedules read like the scenario they script.
	Handover
	// Scramble is the state-corruption adversary (Dolev et al.,
	// arXiv 2006.05901): every period it overwrites a bounded slice of the
	// engine's live protocol state through arq.StateCorruptor (param
	// period, default 10ms). Engines without the capability skip it.
	Scramble
	// Ghost injects well-formed forged frames — CRC-valid bodies with
	// fabricated sequence/serial/ack state — through arq.GhostForger
	// (params dir=ab|ba|both default both, period default 1ms). Forged
	// frames consume real wire time like storm frames.
	Ghost
	// Reorder opens a bounded non-FIFO delivery window on a direction:
	// each frame's arrival gains a deterministic counter-hashed extra
	// delay in [0, jitter) and the pipe's FIFO clamp is suspended (params
	// dir=ab|ba|both default both, jitter default 1ms). Consumes no
	// randomness, like the burst gate.
	Reorder
)

var kindNames = map[Kind]string{
	Outage:     "outage",
	HalfDuplex: "half",
	Storm:      "storm",
	Burst:      "burst",
	Skew:       "skew",
	Handover:   "handover",
	Scramble:   "scramble",
	Ghost:      "ghost",
	Reorder:    "reorder",
}

var kindsByName = map[string]Kind{
	"outage":   Outage,
	"half":     HalfDuplex,
	"storm":    Storm,
	"burst":    Burst,
	"skew":     Skew,
	"handover": Handover,
	"scramble": Scramble,
	"ghost":    Ghost,
	"reorder":  Reorder,
}

// Corruption reports whether the kind belongs to the state-corruption
// family (scramble, ghost, reorder) the §3.2 checker's convergence rule
// keys off.
func (k Kind) Corruption() bool {
	return k == Scramble || k == Ghost || k == Reorder
}

// String names the kind as the grammar spells it.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dir selects the link direction(s) an event applies to.
type Dir uint8

// Directions. AtoB carries I-frames, BtoA carries checkpoint traffic in a
// lamsdlc.Pair.
const (
	Both Dir = iota
	AtoB
	BtoA
)

// String names the direction as the grammar spells it.
func (d Dir) String() string {
	switch d {
	case AtoB:
		return "ab"
	case BtoA:
		return "ba"
	}
	return "both"
}

func parseDir(s string) (Dir, error) {
	switch s {
	case "ab":
		return AtoB, nil
	case "ba":
		return BtoA, nil
	case "both", "":
		return Both, nil
	}
	return Both, fmt.Errorf("faults: unknown direction %q (want ab, ba, or both)", s)
}

// Event is one scripted fault episode.
type Event struct {
	Kind  Kind
	Start sim.Duration // virtual time the episode opens
	Dur   sim.Duration // episode length (instantaneous kinds get defaults)

	Dir Dir // Outage-family and Storm/Burst direction selector

	// Storm parameters.
	Period   sim.Duration // inter-injection spacing
	NAKs     int          // spurious NAK count per injected checkpoint
	Serial   uint32       // serial carried by injected checkpoints
	Enforced bool         // forge the Enforced bit

	// Burst parameters.
	BurstLen, BurstGap sim.Duration

	// Skew parameter: checkpoint-period multiplier.
	Factor float64

	// Reorder parameter: upper bound (exclusive) on the extra per-frame
	// arrival delay inside the non-FIFO window.
	Jitter sim.Duration
}

// End returns the instant the episode closes.
func (e Event) End() sim.Duration { return e.Start + e.Dur }

// String renders the event in the grammar (round-trips through ParseSpec).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s+%s", e.Kind, fmtSpecDur(e.Start), fmtSpecDur(e.Dur))
	var params []string
	add := func(k, v string) { params = append(params, k+"="+v) }
	switch e.Kind {
	case HalfDuplex, Storm, Burst, Ghost, Reorder:
		if e.Dir != Both || e.Kind == HalfDuplex {
			add("dir", e.Dir.String())
		}
	}
	switch e.Kind {
	case Storm:
		add("period", fmtSpecDur(e.Period))
		add("naks", strconv.Itoa(e.NAKs))
		if e.Serial != 0 {
			add("serial", strconv.FormatUint(uint64(e.Serial), 10))
		}
		if e.Enforced {
			add("enforced", "true")
		}
	case Burst:
		add("len", fmtSpecDur(e.BurstLen))
		add("gap", fmtSpecDur(e.BurstGap))
	case Skew:
		add("factor", strconv.FormatFloat(e.Factor, 'g', -1, 64))
	case Scramble, Ghost:
		add("period", fmtSpecDur(e.Period))
	case Reorder:
		add("jitter", fmtSpecDur(e.Jitter))
	}
	if len(params) > 0 {
		b.WriteString(":" + strings.Join(params, ","))
	}
	return b.String()
}

// Spec is a complete fault schedule: zero or more events, sorted by start.
type Spec struct {
	Events []Event
}

// String renders the schedule in the grammar.
func (s *Spec) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// End returns the instant the last episode closes (0 for an empty spec).
func (s *Spec) End() sim.Duration {
	var end sim.Duration
	for _, e := range s.Events {
		if e.End() > end {
			end = e.End()
		}
	}
	return end
}

// CorruptionWindow returns the span covering every state-corruption event
// (scramble, ghost, reorder). ok is false when the schedule has none — the
// checker's convergence rule then stays dormant.
func (s *Spec) CorruptionWindow() (start, end sim.Duration, ok bool) {
	for _, e := range s.Events {
		if !e.Kind.Corruption() {
			continue
		}
		if !ok || e.Start < start {
			start = e.Start
		}
		if e.End() > end {
			end = e.End()
		}
		ok = true
	}
	return start, end, ok
}

// NeedsRNG reports whether arming the schedule consumes randomness: the
// scramble and ghost adversaries draw, while every legacy kind — and
// reorder, whose jitter is counter-hashed — is purely schedule-driven.
// The harness splits the injector an RNG stream only when this is true, so
// legacy schedules keep their exact historical draw sequences.
func (s *Spec) NeedsRNG() bool {
	for _, e := range s.Events {
		if e.Kind == Scramble || e.Kind == Ghost {
			return true
		}
	}
	return false
}

// Validate reports the first structural error in the schedule. ParseSpec
// runs it on everything it parses; NewInjector runs it again so
// programmatically built Specs meet the same bar. Two classes of error:
// every kind here scripts a window, so a non-positive duration is always a
// mistake (parseEvent rejects an explicit "+0s", but a hand-built Event can
// carry one); and two same-kind episodes whose windows and directions
// intersect are rejected outright — the half-duplex ref count and the skew
// restore are the subtle casualties, and no schedule legitimately needs the
// same fault twice at once.
func (s *Spec) Validate() error {
	for _, e := range s.Events {
		if e.Start < 0 {
			return fmt.Errorf("faults: event %s: negative start", e)
		}
		if e.Dur <= 0 {
			return fmt.Errorf("faults: event %s: non-positive duration", e)
		}
	}
	for i, a := range s.Events {
		for _, b := range s.Events[i+1:] {
			if a.Kind != b.Kind {
				continue
			}
			if a.End() <= b.Start || b.End() <= a.Start {
				continue // half-open windows merely touching are fine
			}
			if !dirsIntersect(a, b) {
				continue
			}
			return fmt.Errorf("faults: overlapping %s events (%s and %s)", a.Kind, a, b)
		}
	}
	return nil
}

// dirsIntersect reports whether two events of one kind contend for the same
// link direction. Kinds without a direction selector always contend.
func dirsIntersect(a, b Event) bool {
	switch a.Kind {
	case HalfDuplex, Storm, Burst, Ghost, Reorder:
		return a.Dir == Both || b.Dir == Both || a.Dir == b.Dir
	}
	return true
}

// ParseSpec parses the fault-schedule grammar:
//
//	spec    = event *( ";" event )
//	event   = kind "@" dur [ "+" dur ] [ ":" param *( "," param ) ]
//	param   = key "=" value
//	kind    = "outage" | "half" | "storm" | "burst" | "skew" | "handover" |
//	          "scramble" | "ghost" | "reorder"
//
// Durations use Go syntax ("500ms", "2s"). Defaults: half dir=ba; storm
// dir=ba period=1ms naks=0 serial=0; burst dir=both len=1ms gap=9ms; skew
// factor=1.5 dur=1s; handover dur=30ms; scramble period=10ms; ghost
// dir=both period=1ms; reorder dir=both jitter=1ms; other durations 100ms.
// Repeated parameter keys and overlapping same-kind episodes are hard
// errors (Spec.Validate).
func ParseSpec(text string) (*Spec, error) {
	spec := &Spec{}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		spec.Events = append(spec.Events, ev)
	}
	sort.SliceStable(spec.Events, func(i, j int) bool {
		return spec.Events[i].Start < spec.Events[j].Start
	})
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func parseEvent(text string) (Event, error) {
	var ev Event
	head, params, hasParams := strings.Cut(text, ":")
	kindStr, when, ok := strings.Cut(head, "@")
	if !ok {
		return ev, fmt.Errorf("faults: event %q lacks '@start'", text)
	}
	kind, ok := kindsByName[strings.TrimSpace(kindStr)]
	if !ok {
		return ev, fmt.Errorf("faults: unknown kind %q", kindStr)
	}
	ev.Kind = kind
	startStr, durStr, hasDur := strings.Cut(when, "+")
	start, err := parseSpecDur(startStr)
	if err != nil {
		return ev, fmt.Errorf("faults: event %q: bad start: %v", text, err)
	}
	if start < 0 {
		return ev, fmt.Errorf("faults: event %q: negative start", text)
	}
	ev.Start = start

	// Kind defaults, overridable below.
	ev.Dur = 100 * sim.Millisecond
	switch kind {
	case HalfDuplex, Storm:
		ev.Dir = BtoA
	case Burst, Ghost, Reorder:
		ev.Dir = Both
	}
	ev.Period = sim.Millisecond
	ev.BurstLen = sim.Millisecond
	ev.BurstGap = 9 * sim.Millisecond
	ev.Factor = 1.5
	ev.Jitter = sim.Millisecond
	if kind == Skew {
		ev.Dur = sim.Second
	}
	if kind == Handover {
		ev.Dur = 30 * sim.Millisecond
	}
	if kind == Scramble {
		ev.Period = 10 * sim.Millisecond
	}

	if hasDur {
		d, err := parseSpecDur(durStr)
		if err != nil {
			return ev, fmt.Errorf("faults: event %q: bad duration: %v", text, err)
		}
		if d <= 0 {
			return ev, fmt.Errorf("faults: event %q: non-positive duration", text)
		}
		ev.Dur = d
	}
	if !hasParams {
		return ev, nil
	}
	seen := make(map[string]bool)
	for _, p := range strings.Split(params, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		key, val, ok := strings.Cut(p, "=")
		if !ok {
			return ev, fmt.Errorf("faults: event %q: parameter %q lacks '='", text, p)
		}
		key = strings.TrimSpace(key)
		// A repeated key is a hard error, not last-wins: a schedule that
		// says period twice is a schedule the author mis-edited.
		if seen[key] {
			return ev, fmt.Errorf("faults: event %q: duplicate parameter %q", text, key)
		}
		seen[key] = true
		if err := ev.setParam(key, strings.TrimSpace(val)); err != nil {
			return ev, fmt.Errorf("faults: event %q: %v", text, err)
		}
	}
	if ev.Kind == Skew && !(ev.Factor > 0 && !math.IsInf(ev.Factor, 1)) {
		return ev, fmt.Errorf("faults: event %q: factor must be positive and finite", text)
	}
	return ev, nil
}

func (e *Event) setParam(key, val string) error {
	switch key {
	case "dir":
		switch e.Kind {
		case HalfDuplex, Storm, Burst, Ghost, Reorder:
		default:
			return fmt.Errorf("dir does not apply to %s", e.Kind)
		}
		d, err := parseDir(val)
		if err != nil {
			return err
		}
		if e.Kind == HalfDuplex && d == Both {
			return fmt.Errorf("half-duplex outage needs dir=ab or dir=ba (use outage for both)")
		}
		e.Dir = d
		return nil
	case "period":
		if e.Kind != Storm && e.Kind != Scramble && e.Kind != Ghost {
			return fmt.Errorf("period does not apply to %s", e.Kind)
		}
		d, err := parseSpecDur(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad period %q", val)
		}
		e.Period = d
		return nil
	case "jitter":
		if e.Kind != Reorder {
			return fmt.Errorf("jitter does not apply to %s", e.Kind)
		}
		d, err := parseSpecDur(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad jitter %q", val)
		}
		e.Jitter = d
		return nil
	case "naks":
		if e.Kind != Storm {
			return fmt.Errorf("naks does not apply to %s", e.Kind)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("bad naks %q", val)
		}
		e.NAKs = n
		return nil
	case "serial":
		if e.Kind != Storm {
			return fmt.Errorf("serial does not apply to %s", e.Kind)
		}
		n, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("bad serial %q", val)
		}
		e.Serial = uint32(n)
		return nil
	case "enforced":
		if e.Kind != Storm {
			return fmt.Errorf("enforced does not apply to %s", e.Kind)
		}
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("bad enforced %q", val)
		}
		e.Enforced = b
		return nil
	case "len":
		if e.Kind != Burst {
			return fmt.Errorf("len does not apply to %s", e.Kind)
		}
		d, err := parseSpecDur(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad len %q", val)
		}
		e.BurstLen = d
		return nil
	case "gap":
		if e.Kind != Burst {
			return fmt.Errorf("gap does not apply to %s", e.Kind)
		}
		d, err := parseSpecDur(val)
		if err != nil || d < 0 {
			return fmt.Errorf("bad gap %q", val)
		}
		e.BurstGap = d
		return nil
	case "factor":
		if e.Kind != Skew {
			return fmt.Errorf("factor does not apply to %s", e.Kind)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("bad factor %q", val)
		}
		e.Factor = f
		return nil
	}
	return fmt.Errorf("unknown parameter %q", key)
}

func parseSpecDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	return sim.Duration(d), nil
}

func fmtSpecDur(d sim.Duration) string { return time.Duration(d).String() }
