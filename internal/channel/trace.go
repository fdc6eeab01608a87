// Trace-driven channels: record the per-frame corrupt/clean decisions of
// any ErrorModel into a compact binary trace, replay them deterministically
// against a different protocol (Kuhn et al., arXiv 1205.3831: link-layer
// ARQ results are unrealistic without physical-layer error traces).
//
// Ownership rules:
//
//   - A Trace being RECORDED belongs to exactly one Recorder, and therefore
//     to exactly one pipe in exactly one run: Recorder.Corrupt appends.
//   - A Trace being REPLAYED is read-only and may be shared by any number
//     of concurrent runs; each Replay value is a private cursor. This is
//     what lets a replay batch fan across the bench worker pool.
//   - Replay consumes no RNG draws. A pipe's RNG feeds only its models, so
//     substituting a Replay for a live model never shifts other draws.
package channel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/sim"
)

// TraceRec is one recorded channel decision: the wire occupancy
// [Start, End) and length of a frame, and whether the channel corrupted
// it. In a spans-mode trace (see TraceMode) a record is instead a state
// interval: the channel is errored for [Start, End) when Corrupt is set.
type TraceRec struct {
	Start   sim.Time
	End     sim.Time
	Bits    int
	Corrupt bool
}

// TraceMode says how a trace's records are meant to be replayed.
type TraceMode uint8

const (
	// FrameTrace records one decision per Corrupt call (what a Recorder
	// writes); replay hands decisions back in call order, frame timing
	// ignored — the i-th frame of the replayed run gets the i-th recorded
	// fate.
	FrameTrace TraceMode = iota
	// SpanTrace records time intervals of channel state; replay corrupts
	// every frame whose wire occupancy overlaps an errored span.
	SpanTrace
)

// Trace is one named stream of records — one pipe-direction/frame-class
// error process ("ab/i", "ba/c", ...).
type Trace struct {
	Name string
	Mode TraceMode
	Recs []TraceRec
}

// TraceSet is a named collection of traces: the record/replay unit (one
// file, one run's four streams).
type TraceSet struct {
	order  []string
	byName map[string]*Trace
}

// NewTraceSet returns an empty set.
func NewTraceSet() *TraceSet {
	return &TraceSet{byName: make(map[string]*Trace)}
}

// Stream returns the named trace, creating an empty frames-mode one on
// first use. Creation mutates the set: call it only from the single run
// that owns a recording set, never concurrently.
func (s *TraceSet) Stream(name string) *Trace {
	if tr, ok := s.byName[name]; ok {
		return tr
	}
	tr := &Trace{Name: name}
	s.byName[name] = tr
	s.order = append(s.order, name)
	return tr
}

// Get returns the named trace or nil. Read-only: safe under concurrent
// replay.
func (s *TraceSet) Get(name string) *Trace { return s.byName[name] }

// Names returns the stream names in creation order (the file order).
func (s *TraceSet) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Recorder wraps any ErrorModel and captures its decisions into a trace.
type Recorder struct {
	inner ErrorModel
	tr    *Trace
}

// NewRecorder wraps inner (nil = Perfect), recording into tr.
func NewRecorder(inner ErrorModel, tr *Trace) *Recorder {
	if inner == nil {
		inner = Perfect{}
	}
	tr.Mode = FrameTrace
	return &Recorder{inner: inner, tr: tr}
}

// Corrupt delegates to the wrapped model and appends the decision.
func (r *Recorder) Corrupt(rng *sim.RNG, start, end sim.Time, bits int) bool {
	c := r.inner.Corrupt(rng, start, end, bits)
	r.tr.Recs = append(r.tr.Recs, TraceRec{Start: start, End: end, Bits: bits, Corrupt: c})
	return c
}

func (r *Recorder) String() string {
	return fmt.Sprintf("record(%s->%s)", modelName(r.inner), r.tr.Name)
}

// ReplayPolicy says what a replay does past the end of its trace.
type ReplayPolicy uint8

const (
	// LoopReplay wraps around: frame replay restarts the decision
	// sequence, span replay maps time modulo the trace length — the error
	// process becomes periodic, which keeps long replayed runs under a
	// short trace statistically honest.
	LoopReplay ReplayPolicy = iota
	// TruncateReplay goes clean once the trace runs dry.
	TruncateReplay
)

// Replay plays a trace back as an ErrorModel. Each Replay is a private
// cursor over a shared read-only trace; never share one across pipes.
type Replay struct {
	tr     *Trace
	policy ReplayPolicy
	pos    int // next frame-mode record to consume
}

// NewReplay returns a cursor at the start of tr. A nil or empty trace
// replays as a perfect channel.
func NewReplay(tr *Trace, policy ReplayPolicy) *Replay {
	return &Replay{tr: tr, policy: policy}
}

// Corrupt replays the recorded fate: by call order for frame traces, by
// wire-occupancy overlap for span traces. It draws nothing from rng.
func (r *Replay) Corrupt(_ *sim.RNG, start, end sim.Time, _ int) bool {
	if r.tr == nil || len(r.tr.Recs) == 0 {
		return false
	}
	if r.tr.Mode == SpanTrace {
		return r.corruptSpan(start, end)
	}
	if r.pos >= len(r.tr.Recs) {
		if r.policy == TruncateReplay {
			return false
		}
		r.pos = 0
	}
	c := r.tr.Recs[r.pos].Corrupt
	r.pos++
	return c
}

// corruptSpan reports whether [start, end) overlaps any errored span,
// mapping time modulo the trace length under LoopReplay.
func (r *Replay) corruptSpan(start, end sim.Time) bool {
	if end <= start {
		end = start + 1
	}
	length := r.tr.Recs[len(r.tr.Recs)-1].End
	if length <= 0 || (r.policy == TruncateReplay && start >= length) {
		return false
	}
	if r.policy == LoopReplay && start >= length {
		span := end - start
		start = sim.Time(int64(start) % int64(length))
		end = start + span
	}
	if r.overlapsErrored(start, end) {
		return true
	}
	// A looped frame straddling the wrap point also sees the trace head.
	if r.policy == LoopReplay && end > length {
		return r.overlapsErrored(0, end-length)
	}
	return false
}

func (r *Replay) overlapsErrored(start, end sim.Time) bool {
	recs := r.tr.Recs
	// First span ending after start; spans are sorted and non-overlapping.
	i := sort.Search(len(recs), func(i int) bool { return recs[i].End > start })
	for ; i < len(recs) && recs[i].Start < end; i++ {
		if recs[i].Corrupt {
			return true
		}
	}
	return false
}

func (r *Replay) String() string {
	name := "<nil>"
	if r.tr != nil {
		name = r.tr.Name
	}
	return fmt.Sprintf("replay(%s)", name)
}

func modelName(m ErrorModel) string {
	if s, ok := m.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", m)
}

// traceMagic opens every trace file: format name + version in 8 bytes.
const traceMagic = "LAMSTRC1"

// Encode serializes the set: magic, stream count, then per stream the
// name, mode, and delta/varint-packed records. Start times within a
// stream must be non-decreasing (every producer here appends in wire
// order) — Encode errors otherwise rather than emit a file ReadTraceSet
// would misparse.
func (s *TraceSet) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(s.order))); err != nil {
		return err
	}
	for _, name := range s.order {
		tr := s.byName[name]
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(tr.Mode)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(tr.Recs))); err != nil {
			return err
		}
		var prev sim.Time
		for _, rec := range tr.Recs {
			if rec.Start < prev || rec.End < rec.Start || rec.Bits < 0 {
				return fmt.Errorf("channel: trace stream %q not in wire order", name)
			}
			if err := putUvarint(uint64(rec.Start - prev)); err != nil {
				return err
			}
			if err := putUvarint(uint64(rec.End - rec.Start)); err != nil {
				return err
			}
			if err := putUvarint(uint64(rec.Bits)); err != nil {
				return err
			}
			var flags byte
			if rec.Corrupt {
				flags = 1
			}
			if err := bw.WriteByte(flags); err != nil {
				return err
			}
			prev = rec.Start
		}
	}
	return bw.Flush()
}

// WriteFile serializes the set to path.
func (s *TraceSet) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Smallest encodings, used to reject counts the input cannot hold: a
// stream header is a name-length uvarint, the mode byte and a record-count
// uvarint; a record is three uvarints and the flags byte.
const (
	minTraceStreamBytes = 3
	minTraceRecBytes    = 4
)

// maxTracePrealloc caps the records reserved up front for one stream;
// longer streams grow as their records decode.
const maxTracePrealloc = 4096

// ReadTraceSet parses a serialized set. Counts and lengths in the input are
// untrusted: one that claims more than the remaining bytes can encode is
// rejected before anything is allocated for it. A stream name may appear
// only once.
func ReadTraceSet(r io.Reader) (*TraceSet, error) {
	// The magic is checked before anything is buffered, so a stream that
	// is not a trace (an endless device, a huge unrelated file) is turned
	// away after 8 bytes instead of read whole.
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("channel: trace header: %v", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("channel: not a trace file (magic %q)", magic)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("channel: trace read: %v", err)
	}
	br := bytes.NewReader(data)
	nstreams, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("channel: trace stream count: %v", err)
	}
	if nstreams > uint64(br.Len())/minTraceStreamBytes {
		return nil, fmt.Errorf("channel: trace stream count %d exceeds what %d remaining bytes hold", nstreams, br.Len())
	}
	set := NewTraceSet()
	for si := uint64(0); si < nstreams; si++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream name: %v", err)
		}
		if nameLen > uint64(br.Len()) {
			return nil, fmt.Errorf("channel: trace stream name length %d exceeds the %d remaining bytes", nameLen, br.Len())
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("channel: trace stream name: %v", err)
		}
		mode, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream mode: %v", err)
		}
		if TraceMode(mode) > SpanTrace {
			return nil, fmt.Errorf("channel: trace stream %q: unknown mode %d", name, mode)
		}
		nrecs, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("channel: trace stream %q: %v", name, err)
		}
		if nrecs > uint64(br.Len())/minTraceRecBytes {
			return nil, fmt.Errorf("channel: trace stream %q: record count %d exceeds what %d remaining bytes hold", name, nrecs, br.Len())
		}
		if set.Get(string(name)) != nil {
			return nil, fmt.Errorf("channel: trace stream %q appears twice", name)
		}
		tr := set.Stream(string(name))
		tr.Mode = TraceMode(mode)
		tr.Recs = make([]TraceRec, 0, min(nrecs, maxTracePrealloc))
		var prev sim.Time
		for ri := uint64(0); ri < nrecs; ri++ {
			rec, err := readTraceRec(br, prev)
			if err != nil {
				return nil, fmt.Errorf("channel: trace stream %q record %d: %v", name, ri, err)
			}
			tr.Recs = append(tr.Recs, rec)
			prev = rec.Start
		}
	}
	return set, nil
}

// readTraceRec decodes one record of a stream whose previous record started
// at prev. A delta, duration or bit count that overflows its Go type is
// rejected, so every stream ReadTraceSet returns is one Encode accepts.
func readTraceRec(br *bytes.Reader, prev sim.Time) (TraceRec, error) {
	var v [3]uint64 // start delta, duration, bits
	for i := range v {
		var err error
		if v[i], err = binary.ReadUvarint(br); err != nil {
			return TraceRec{}, err
		}
	}
	flags, err := br.ReadByte()
	if err != nil {
		return TraceRec{}, err
	}
	delta, dur, bits := v[0], v[1], v[2]
	room := uint64(math.MaxInt64 - prev)
	if delta > room || dur > room-delta || bits > math.MaxInt {
		return TraceRec{}, fmt.Errorf("time or bit count out of range")
	}
	start := prev.Add(sim.Duration(delta))
	return TraceRec{
		Start:   start,
		End:     start.Add(sim.Duration(dur)),
		Bits:    int(bits),
		Corrupt: flags&1 != 0,
	}, nil
}

// ReadTraceFile parses the trace file at path.
func ReadTraceFile(path string) (*TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTraceSet(f)
}
