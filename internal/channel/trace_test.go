package channel

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

// driveModel runs n frames through m at irregular spacings and returns the
// decision stream. The spacings deliberately straddle Gilbert-Elliott
// sojourn boundaries (mean sojourns of a few ms against gaps of 0.1–3 ms).
func driveModel(m ErrorModel, rng *sim.RNG, n int) []bool {
	out := make([]bool, n)
	at := sim.Time(0)
	for i := range out {
		end := at + sim.Time(27*sim.Microsecond)
		out[i] = m.Corrupt(rng, at, end, 8000)
		at = end + sim.Time((1+3*(i%7))*int(sim.Microsecond)*100)
	}
	return out
}

func TestRecorderReplayEquivalence(t *testing.T) {
	spec := "ge:gber=1e-6,bber=5e-2,mgood=4ms,mbad=2ms"
	live := MustParseModel(spec).New()
	tr := &Trace{Name: "ab/i"}
	rec := NewRecorder(MustParseModel(spec).New(), tr)

	want := driveModel(live, sim.NewRNG(3), 400)
	got := driveModel(rec, sim.NewRNG(3), 400)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("Recorder changed the wrapped model's decisions")
	}

	// Replay hands the identical stream back, drawing nothing from its RNG.
	rep := NewReplay(tr, TruncateReplay)
	replayed := driveModel(rep, nil, 400)
	if !reflect.DeepEqual(want, replayed) {
		t.Fatal("Replay diverged from the recorded decisions")
	}
}

func TestReplayPolicies(t *testing.T) {
	tr := &Trace{Name: "x", Recs: []TraceRec{
		{Start: 0, End: 1, Corrupt: true},
		{Start: 1, End: 2, Corrupt: false},
		{Start: 2, End: 3, Corrupt: true},
	}}
	loop := NewReplay(tr, LoopReplay)
	var got []bool
	for i := 0; i < 7; i++ {
		got = append(got, loop.Corrupt(nil, 0, 1, 8))
	}
	want := []bool{true, false, true, true, false, true, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loop replay = %v, want %v", got, want)
	}

	trunc := NewReplay(tr, TruncateReplay)
	got = got[:0]
	for i := 0; i < 5; i++ {
		got = append(got, trunc.Corrupt(nil, 0, 1, 8))
	}
	want = []bool{true, false, true, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("truncate replay = %v, want %v", got, want)
	}

	// Nil and empty traces replay as perfect channels.
	if NewReplay(nil, LoopReplay).Corrupt(nil, 0, 1, 8) {
		t.Fatal("nil trace corrupted a frame")
	}
}

func TestTraceSetRoundTrip(t *testing.T) {
	set := NewTraceSet()
	rng := sim.NewRNG(11)
	for _, name := range []string{"ab/i", "ab/c", "ba/i", "ba/c"} {
		tr := set.Stream(name)
		at := sim.Time(0)
		for i := 0; i < 300; i++ {
			end := at + sim.Time(13*sim.Microsecond)
			tr.Recs = append(tr.Recs, TraceRec{
				Start: at, End: end, Bits: 100 + i, Corrupt: rng.Bernoulli(0.3),
			})
			at = end + sim.Time(i%5)*sim.Time(sim.Microsecond)
		}
	}
	set.Stream("spans").Mode = SpanTrace
	set.Get("spans").Recs = []TraceRec{
		{Start: 0, End: 100, Corrupt: false},
		{Start: 100, End: 140, Corrupt: true},
	}

	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Names(), set.Names()) {
		t.Fatalf("stream names: %v != %v", back.Names(), set.Names())
	}
	for _, name := range set.Names() {
		a, b := set.Get(name), back.Get(name)
		if a.Mode != b.Mode || !reflect.DeepEqual(a.Recs, b.Recs) {
			t.Fatalf("stream %q did not round-trip", name)
		}
	}

	// File round-trip too (the CLI path).
	path := filepath.Join(t.TempDir(), "rt.trc")
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsDisorderedStream(t *testing.T) {
	set := NewTraceSet()
	set.Stream("bad").Recs = []TraceRec{
		{Start: 100, End: 110},
		{Start: 50, End: 60}, // out of wire order
	}
	if err := set.Encode(&bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "not in wire order") {
		t.Fatalf("want wire-order error, got %v", err)
	}
}

// endlessZeros reads as an infinite stream of zero bytes, like /dev/zero.
type endlessZeros struct{}

func (endlessZeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestReadTraceSetRejectsEndlessInput pins the magic-first read: a stream
// that is not a trace is turned away after its first 8 bytes. Reading the
// input whole before checking the magic ran out of memory on /dev/zero.
func TestReadTraceSetRejectsEndlessInput(t *testing.T) {
	_, err := ReadTraceSet(endlessZeros{})
	if err == nil || !strings.Contains(err.Error(), "not a trace file") {
		t.Fatalf("want a not-a-trace error, got %v", err)
	}
}

func TestReadTraceSetRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "NOTATRACE", "LAMSTRC1", "LAMSTRC9\x00"} {
		if _, err := ReadTraceSet(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTraceSet(%q): want error", in)
		}
	}
}

// impossibleTraces are headers whose counts, lengths or values no valid
// trace holds. The first case is a 21-byte file declaring one stream of
// 2^40 records: sized from that count, the record slice would be 32 TiB and
// the process would die out of memory.
var impossibleTraces = []struct{ name, in string }{
	{"record count 2^40", "LAMSTRC1\x01\x04ab/i\x00\x80\x80\x80\x80\x80\x20"},
	{"record count one past the input", "LAMSTRC1\x01\x04ab/i\x00\x02\x00\x00\x00\x00"},
	{"name length 2^40", "LAMSTRC1\x01\x80\x80\x80\x80\x80\x20ab/i"},
	{"stream count 2^40", "LAMSTRC1\x80\x80\x80\x80\x80\x20\x04ab/i\x00\x00"},
	{"start delta past int64", "LAMSTRC1\x01\x04ab/i\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00"},
	{"duration past int64", "LAMSTRC1\x01\x04ab/i\x00\x01\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00"},
	{"duplicate stream", "LAMSTRC1\x02\x01a\x00\x00\x01a\x00\x00"},
}

// TestReadTraceSetRejectsImpossibleCounts checks every impossibleTraces
// input is an error, and that the largest count an input can hold still
// decodes.
func TestReadTraceSetRejectsImpossibleCounts(t *testing.T) {
	for _, tc := range impossibleTraces {
		if _, err := ReadTraceSet(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// The largest count the input can hold still decodes.
	set, err := ReadTraceSet(strings.NewReader("LAMSTRC1\x01\x04ab/i\x00\x01\x00\x00\x00\x01"))
	if err != nil {
		t.Fatal(err)
	}
	if recs := set.Get("ab/i").Recs; len(recs) != 1 || !recs[0].Corrupt {
		t.Fatalf("recs = %+v, want one corrupt record", recs)
	}
}

// TestReplaySpans pins spans-mode replay: a frame is corrupted exactly when
// its wire occupancy overlaps an errored span, under both end-of-trace
// policies.
func TestReplaySpans(t *testing.T) {
	sec := sim.Time(sim.Second)
	tr := &Trace{Name: "spans", Mode: SpanTrace, Recs: []TraceRec{
		{Start: 0, End: sim.Time(1500 * sim.Millisecond), Corrupt: false},
		{Start: sim.Time(1500 * sim.Millisecond), End: 2 * sec, Corrupt: true},
		{Start: 2 * sec, End: 3 * sec, Corrupt: false},
	}}
	rep := NewReplay(tr, TruncateReplay)
	if rep.Corrupt(nil, 0, sec, 8) {
		t.Fatal("clean span corrupted a frame")
	}
	if !rep.Corrupt(nil, sec, 2*sec, 8) {
		t.Fatal("frame overlapping the errored span survived")
	}
	if rep.Corrupt(nil, 5*sec, 6*sec, 8) {
		t.Fatal("truncate policy corrupted past the trace end")
	}
	// Loop policy maps time modulo the 3 s trace: t=4.6s lands at 1.6s,
	// inside the errored span.
	looped := NewReplay(tr, LoopReplay)
	if !looped.Corrupt(nil, sim.Time(4600*sim.Millisecond), sim.Time(4700*sim.Millisecond), 8) {
		t.Fatal("loop policy missed the wrapped errored span")
	}
}

// TestGESplitClockDeterminism pins satellite 3 of the trace work: a
// stateful Gilbert-Elliott model's sojourn bookkeeping across frame
// boundaries must make identical decisions whether its pipe lives on one
// scheduler (NewAsymmetricLink) or has its receive side on another shard's clock
// (NewSplitLink + SetRemote + DeliverInbound). The model is only consulted
// at Send time on the transmit clock, so shards-1-vs-8 runs stay
// deterministic with stateful models.
func TestGESplitClockDeterminism(t *testing.T) {
	ge := MustParseModel("ge:gber=1e-6,bber=8e-2,mgood=2ms,mbad=1ms")
	cfg := func() PipeConfig {
		return PipeConfig{
			RateBps: 1e8,
			Delay:   ConstantDelay(3 * sim.Millisecond),
			IModel:  ge.New(),
		}
	}
	const frames = 300

	send := func(sched *sim.Scheduler, p *Pipe) {
		// Irregular spacing so frames straddle sojourn boundaries.
		for i := 0; i < frames; i++ {
			at := sim.Time(i) * sim.Time(400*sim.Microsecond)
			at += sim.Time(i%7) * sim.Time(90*sim.Microsecond)
			seq := uint32(i)
			sched.Schedule(at, func() { p.Send(frame.NewI(seq, uint64(seq), make([]byte, 200))) })
		}
	}
	collect := func(p *Pipe) *[]bool {
		var got []bool
		p.SetHandler(func(_ sim.Time, f *frame.Frame) { got = append(got, f.Corrupted) })
		return &got
	}

	// Reference: both ends on one scheduler.
	localSched := sim.NewScheduler()
	local := NewAsymmetricLink(localSched, cfg(), cfg(), sim.NewRNG(42))
	localGot := collect(local.AtoB)
	send(localSched, local.AtoB)
	localSched.Run()

	// Split: transmit clock and receive clock are different schedulers,
	// frames crossing via SetRemote/DeliverInbound like the shard engine.
	sendSched, recvSched := sim.NewScheduler(), sim.NewScheduler()
	split := NewSplitLink(sendSched, recvSched, cfg(), cfg(), sim.NewRNG(42))
	splitGot := collect(split.AtoB)
	split.AtoB.SetRemote(func(at sim.Time, f *frame.Frame) {
		recvSched.Schedule(at, func() { split.AtoB.DeliverInbound(at, f) })
	})
	send(sendSched, split.AtoB)
	sendSched.Run()
	recvSched.Run()

	if len(*localGot) != frames || len(*splitGot) != frames {
		t.Fatalf("delivered %d local / %d split, want %d", len(*localGot), len(*splitGot), frames)
	}
	if !reflect.DeepEqual(*localGot, *splitGot) {
		t.Fatal("GE decisions diverged between local and split-clock pipes")
	}
}
