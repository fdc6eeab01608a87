package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/sim"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans are kept in memory and written out when the run ends.
type span struct {
	Name string `json:"name"`
	// Parent is the index of the span that made the call (-1 for an op
	// or a ladder rung); Root is the op or rung the span belongs to.
	Parent int   `json:"parent"`
	Root   int   `json:"root"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

// tracer records spans on the benchmark's own goroutine. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	root := len(t.spans)
	if parent >= 0 {
		root = t.spans[parent].Root
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Root: root, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// spanStat is the time one span name took over a run.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is TotalMS less the time covered by the spans' children.
	SelfMS float64 `json:"self_ms"`
}

// summary returns the per-name totals, by descending self time.
func (t *tracer) summary() []spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drawTimer times every error-model draw of a traced run from outside the
// channel package: the "timed:slot=N" model kind, registered below, wraps
// a fresh instance of the model parsed into slot N.
type drawTimer struct {
	mu     sync.Mutex
	slots  []channel.Model
	bySpec map[string]int
	live   []*timedModel
}

// draws is the timer behind the "timed" kind; the registry is global, so
// the table it reads is too.
var draws = &drawTimer{bySpec: map[string]int{}}

func init() {
	channel.RegisterModel(channel.ModelRegistration{
		Kind:  "timed",
		Usage: "timed:slot=",
		Build: draws.build,
	})
}

// wrap returns the spec of a timed wrapper around spec, which must parse.
func (d *drawTimer) wrap(spec string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.bySpec[spec]
	if !ok {
		slot = len(d.slots)
		d.slots = append(d.slots, channel.MustParseModel(spec))
		d.bySpec[spec] = slot
	}
	return "timed:slot=" + strconv.Itoa(slot)
}

func (d *drawTimer) build(p *channel.Params) (func() channel.ErrorModel, error) {
	text := p.RequiredText("slot")
	if err := p.Err(); err != nil {
		return nil, err
	}
	slot, err := strconv.Atoi(text)
	d.mu.Lock()
	ok := err == nil && slot >= 0 && slot < len(d.slots)
	var inner channel.Model
	if ok {
		inner = d.slots[slot]
	}
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("timed: no model in slot %q", text)
	}
	return func() channel.ErrorModel {
		m := &timedModel{inner: inner.New()}
		d.mu.Lock()
		d.live = append(d.live, m)
		d.mu.Unlock()
		return m
	}, nil
}

// collect sums and forgets the draws of every wrapper made so far. Call
// it only after the runs that used the wrappers have returned.
func (d *drawTimer) collect() (n, ns int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.live {
		n += m.draws
		ns += m.ns
	}
	d.live = nil
	return n, ns
}

// timedModel is one pipe's wrapped model. A pipe draws from one goroutine
// at a time, so its tallies need no lock.
type timedModel struct {
	inner     channel.ErrorModel
	draws, ns int64
}

func (m *timedModel) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	t0 := time.Now()
	c := m.inner.Corrupt(rng, start, end, bits)
	m.ns += int64(time.Since(t0))
	m.draws++
	return c
}

// clockCost is the median cost of one time.Now/time.Since pair, which
// every timed draw pays on top of the model.
func clockCost() float64 {
	const batch = 1000
	costs := make([]float64, 0, 21)
	for r := 0; r < 21; r++ {
		var sum time.Duration
		for i := 0; i < batch; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		costs = append(costs, float64(sum)/batch)
	}
	return median(costs)
}
