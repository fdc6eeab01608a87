package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// sample is one measured op.
type sample struct {
	setup, op      time.Duration
	delivered      uint64
	mallocs, bytes uint64
	gc             gcStats // the GC work done during the op
	traced         bool
	breach         string // why the op failed; "" when it passed
}

// runOps prepares and runs ops of w until d has passed and at least
// minOps have run. pick gives op i its parameters and, when it is to be
// traced, the span tracer. Every op is checked against ref: its
// invariants must hold, it must deliver what it offered, and its digest
// must equal the reference digest.
func runOps(w workload, pick func(i int) (params, *tracer), ref outcome, d time.Duration, minOps int) ([]sample, error) {
	var out []sample
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		p, tr := pick(i)
		root := tr.begin("op", -1)
		setupSpan := tr.begin(w.setupSpan, root)
		t0 := time.Now()
		o, err := w.prepare(p)
		setup := time.Since(t0)
		tr.end(setupSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		runtime.ReadMemStats(&m0)
		gc0 := readGC()
		runSpan := tr.begin(w.runSpan, root)
		t1 := time.Now()
		o.run()
		elapsed := time.Since(t1)
		tr.end(runSpan)
		gc1 := readGC()
		runtime.ReadMemStats(&m1)
		tr.end(root)
		res := o.outcome()
		out = append(out, sample{
			setup:     setup,
			op:        elapsed,
			delivered: res.delivered,
			mallocs:   m1.Mallocs - m0.Mallocs,
			bytes:     m1.TotalAlloc - m0.TotalAlloc,
			gc:        gc1.minus(gc0),
			traced:    tr != nil,
			breach:    check(res, &ref),
		})
	}
	return out, nil
}

// plainOps picks p untraced for every op.
func plainOps(p params) func(int) (params, *tracer) {
	return func(int) (params, *tracer) { return p, nil }
}

// check returns why o fails, or "": a breached invariant, an undelivered
// datagram, or, when ref is not nil, a digest other than ref's.
func check(o outcome, ref *outcome) string {
	switch {
	case len(o.breaches) > 0:
		return o.breaches[0]
	case o.delivered != o.offered:
		return fmt.Sprintf("delivered %d of %d datagrams", o.delivered, o.offered)
	case ref != nil && o.digest != ref.digest:
		return fmt.Sprintf("result digest %x differs from the reference %x", o.digest[:8], ref.digest[:8])
	}
	return ""
}

// median returns the middle of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs, by the same
// exclusive method as Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4, 1-based, clamped to the sample.
		pos := float64(j*(n+1)) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(3)
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it: the value at rank n−10 of the sorted sample, and that rank's
// percentile. With ten samples or fewer it is the maximum, at 100.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 10
	return s[k-1], 100 * float64(k) / float64(n)
}
