package channel

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// FuzzParseModel drives the spec parser with arbitrary text: it must never
// panic, any model it accepts must reparse from its String to the same
// spec, and its instances' Corrupt must run over a few frames without
// panicking. Trace specs are skipped because parsing one opens the file it
// names.
func FuzzParseModel(f *testing.F) {
	for _, tc := range malformedSpecs {
		f.Add(tc.spec)
	}
	for _, spec := range []string{
		"perfect",
		"fixed:p=0.05",
		"bsc:ber=1e-5,fec=hamming74",
		"ge:gber=1e-7,bber=2e-3,mgood=40ms,mbad=4ms,fec=rep3",
		"burst:period=100ms,len=5ms,offset=1ms,ber=1e-6,fec=none",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		kind, _, _ := strings.Cut(spec, ":")
		if strings.ToLower(strings.TrimSpace(kind)) == "trace" {
			t.Skip("trace specs open files")
		}
		m, err := ParseModel(spec)
		if err != nil {
			return
		}
		again, err := ParseModel(m.String())
		if err != nil || again.String() != m.String() {
			t.Fatalf("spec %q reparsed from its String %q: %v, %q", spec, m.String(), err, again.String())
		}
		inst := m.New()
		rng := sim.NewRNG(1)
		at := sim.Time(0)
		for i := 0; i < 8; i++ {
			end := at + sim.Time(27*sim.Microsecond)
			inst.Corrupt(rng, at, end, 8000)
			at = end + sim.Time(sim.Millisecond)
		}
	})
}

// FuzzReadTraceSet drives the trace decoder with arbitrary bytes: it must
// never panic, and any set it accepts must survive Encode and a second
// decode unchanged.
func FuzzReadTraceSet(f *testing.F) {
	for _, tc := range impossibleTraces {
		f.Add([]byte(tc.in))
	}
	set := NewTraceSet()
	rng := sim.NewRNG(3)
	for _, name := range []string{"ab/i", "ab/c"} {
		rec := NewRecorder(MustParseModel("ge:gber=1e-6,bber=8e-2,mgood=2ms,mbad=1ms").New(), set.Stream(name))
		driveModel(rec, rng, 50)
	}
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadTraceSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := first.Encode(&out); err != nil {
			t.Fatalf("accepted set failed to encode: %v", err)
		}
		second, err := ReadTraceSet(&out)
		if err != nil {
			t.Fatalf("re-encoded set failed to decode: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("decode→encode→decode changed the set:\n first  %+v\n second %+v", first, second)
		}
	})
}
