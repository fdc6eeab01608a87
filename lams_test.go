package lams

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/arq"
	"repro/internal/channel"
	"repro/internal/fec"
	"repro/internal/orbit"
	"repro/internal/sim"
)

// defaultEngine returns the named engine with registry defaults for lp.
func defaultEngine(t *testing.T, name string, lp LinkParams) Engine {
	t.Helper()
	e, err := arq.DefaultEngine(name, 2*lp.OneWay())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFacadeEndToEnd(t *testing.T) {
	s := NewSimulation(42)
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	link := s.NewLink(lp)
	got := map[uint64]int{}
	pair := s.NewPair(defaultEngine(t, "lams", lp), link, func(_ Time, dg Datagram, _ uint32) {
		got[dg.ID]++
	}, nil)
	const n = 100
	for i := 0; i < n; i++ {
		if !pair.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 1024)}) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	s.RunFor(10 * time.Second)
	for i := 0; i < n; i++ {
		if got[uint64(i)] == 0 {
			t.Fatalf("datagram %d lost", i)
		}
	}
	if s.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestFacadeHDLC(t *testing.T) {
	s := NewSimulation(7)
	lp := LinkParams{RateBps: 100e6, DistanceKm: 2000, BER: 1e-6}
	link := s.NewLink(lp)
	var order []uint64
	pair := s.NewPair(defaultEngine(t, "srhdlc", lp), link, func(_ Time, dg Datagram, _ uint32) {
		order = append(order, dg.ID)
	}, nil)
	for i := 0; i < 50; i++ {
		pair.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 512)})
	}
	s.RunFor(10 * time.Second)
	if len(order) != 50 {
		t.Fatalf("delivered %d", len(order))
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatal("HDLC must deliver in order")
		}
	}
}

func TestLinkParamsVariants(t *testing.T) {
	// Constant distance.
	lp := LinkParams{RateBps: 1e9, DistanceKm: 2998}
	if d := lp.OneWay(); d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("one way %v for ~3000 km", d)
	}
	// Orbit-driven.
	ol := orbit.InPlanePair(1000e3, 30)
	lp2 := LinkParams{RateBps: 1e9, Orbit: &ol}
	if lp2.OneWay() <= 0 {
		t.Fatal("orbit delay")
	}
	// The error models resolve through the channel-model registry to the
	// paper's FEC split: Hamming(7,4) on I-frames, repetition-3 on control.
	bt := &channel.BurstTrain{Period: sim.Second, BurstLen: sim.Millisecond}
	for _, tc := range []struct {
		lp   LinkParams
		i, c channel.ErrorModel
	}{
		{LinkParams{}, channel.Perfect{}, channel.Perfect{}},
		{LinkParams{BER: 1e-6},
			&channel.BSC{BER: 1e-6, Scheme: fec.Hamming74},
			&channel.BSC{BER: 1e-6, Scheme: fec.Repetition3}},
		{LinkParams{BER: 1e-6, Burst: bt},
			&channel.BurstTrain{Period: sim.Second, BurstLen: sim.Millisecond, BaseBER: 1e-6, Scheme: fec.Hamming74},
			&channel.BurstTrain{Period: sim.Second, BurstLen: sim.Millisecond, BaseBER: 1e-6, Scheme: fec.Repetition3}},
	} {
		is, cs := tc.lp.specs()
		if got := channel.MustParseModel(is).New(); !reflect.DeepEqual(got, tc.i) {
			t.Errorf("I model for %+v: %q built %#v, want %#v", tc.lp, is, got, tc.i)
		}
		if got := channel.MustParseModel(cs).New(); !reflect.DeepEqual(got, tc.c) {
			t.Errorf("C model for %+v: %q built %#v, want %#v", tc.lp, cs, got, tc.c)
		}
	}
}

func TestAnalysisForValid(t *testing.T) {
	lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-6}
	cfg := DefaultsFor(lp)
	p := AnalysisFor(lp, cfg, 1024, 64, 13*time.Millisecond)
	if err := p.Validate(); err != nil {
		t.Fatalf("analysis params invalid: %v", err)
	}
	if !(p.PC < p.PF) {
		t.Fatal("stronger control FEC not reflected")
	}
}

func TestSimulationDeterminism(t *testing.T) {
	run := func() uint64 {
		s := NewSimulation(99)
		lp := LinkParams{RateBps: 300e6, DistanceKm: 4000, BER: 1e-4}
		link := s.NewLink(lp)
		var count uint64
		pair := s.NewPair(defaultEngine(t, "lams", lp), link, func(_ Time, dg Datagram, _ uint32) {
			count++
		}, nil)
		for i := 0; i < 100; i++ {
			pair.Enqueue(Datagram{ID: uint64(i), Payload: make([]byte, 1024)})
		}
		s.RunFor(5 * time.Second)
		return count + pair.Metrics().Retransmissions.Value()<<32
	}
	if run() != run() {
		t.Fatal("same seed produced different runs")
	}
}
