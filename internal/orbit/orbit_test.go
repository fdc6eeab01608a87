package orbit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestOrbitPeriodLEO(t *testing.T) {
	// A 1000 km circular orbit has a period of roughly 105 minutes.
	o := Orbit{AltitudeM: 1000e3}
	p := o.Period()
	if p < 100*time.Minute || p > 110*time.Minute {
		t.Fatalf("period = %v, want ~105min", p)
	}
}

func TestPositionStaysOnSphere(t *testing.T) {
	f := func(altKm uint16, incDeg, raanDeg, phaseDeg uint16, seconds uint32) bool {
		o := Orbit{
			AltitudeM:      500e3 + float64(altKm%1500)*1e3,
			InclinationRad: float64(incDeg%180) * math.Pi / 180,
			RAANRad:        float64(raanDeg%360) * math.Pi / 180,
			PhaseRad:       float64(phaseDeg%360) * math.Pi / 180,
		}
		p := o.Position(time.Duration(seconds) * time.Second)
		return math.Abs(p.Norm()-o.Radius()) < 1 // metre tolerance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// positionReference is Orbit.Position as written before its constant terms
// moved into Track, kept verbatim as the bit-exact reference.
func positionReference(o Orbit, t time.Duration) Vec3 {
	u := o.PhaseRad + o.MeanMotion()*t.Seconds() // argument of latitude
	r := o.Radius()
	cosU, sinU := math.Cos(u), math.Sin(u)
	cosI, sinI := math.Cos(o.InclinationRad), math.Sin(o.InclinationRad)
	cosO, sinO := math.Cos(o.RAANRad), math.Sin(o.RAANRad)
	x := r * (cosO*cosU - sinO*sinU*cosI)
	y := r * (sinO*cosU + cosO*sinU*cosI)
	z := r * (sinU * sinI)
	return Vec3{x, y, z}
}

func sameBits(a, b Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestTrackMatchesPositionFormula pins that hoisting the constant terms
// changes no bit: Track.At, Position, and the LinkTrack range equal the
// reference formula exactly over random orbits and instants, so every
// orbit-driven delay — and every trajectory built on one — is unchanged.
func TestTrackMatchesPositionFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randOrbit := func() Orbit {
		return Orbit{
			AltitudeM:      200e3 + rng.Float64()*2000e3,
			InclinationRad: rng.Float64() * math.Pi,
			RAANRad:        rng.Float64() * 2 * math.Pi,
			PhaseRad:       rng.Float64() * 2 * math.Pi,
		}
	}
	for i := 0; i < 200; i++ {
		a, b := randOrbit(), randOrbit()
		ta := a.Track()
		lt := Link{A: a, B: b, GrazingAltitudeM: 80e3}.Track()
		for j := 0; j < 50; j++ {
			at := time.Duration(rng.Int63n(int64(48 * time.Hour)))
			want := positionReference(a, at)
			if got := ta.At(at); !sameBits(got, want) {
				t.Fatalf("orbit %+v at %v: Track.At = %+v, reference %+v", a, at, got, want)
			}
			if got := a.Position(at); !sameBits(got, want) {
				t.Fatalf("orbit %+v at %v: Position = %+v, reference %+v", a, at, got, want)
			}
			wantRange := positionReference(b, at).Sub(want).Norm()
			if got := lt.RangeM(at); math.Float64bits(got) != math.Float64bits(wantRange) {
				t.Fatalf("link at %v: LinkTrack.RangeM = %v, reference %v", at, got, wantRange)
			}
		}
	}
}

func TestPositionPeriodicity(t *testing.T) {
	o := Orbit{AltitudeM: 1000e3, InclinationRad: 1.0, RAANRad: 0.5, PhaseRad: 0.25}
	p0 := o.Position(0)
	p1 := o.Position(o.Period())
	if p1.Sub(p0).Norm() > 100 { // within 100 m after one period
		t.Fatalf("position after one period off by %v m", p1.Sub(p0).Norm())
	}
}

func TestInPlanePairConstantRange(t *testing.T) {
	l := InPlanePair(1000e3, 30)
	r0 := l.RangeM(0)
	for _, dt := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		r := l.RangeM(dt)
		if math.Abs(r-r0) > 1 {
			t.Fatalf("in-plane range drifted: %v vs %v", r, r0)
		}
	}
	// Chord length for 30 degrees at radius ~7371 km is 2*r*sin(15°).
	want := 2 * (EarthRadiusM + 1000e3) * math.Sin(15*math.Pi/180)
	if math.Abs(r0-want) > 1 {
		t.Fatalf("range = %v, want %v", r0, want)
	}
}

func TestInPlanePairPaperDistances(t *testing.T) {
	// The paper's links are 2,000–10,000 km; check the geometry can produce
	// that range with reasonable separations.
	short := InPlanePair(1000e3, 16)
	long := InPlanePair(1000e3, 85)
	if d := short.RangeM(0); d < 1.8e6 || d > 2.4e6 {
		t.Fatalf("short link %v m", d)
	}
	if d := long.RangeM(0); d < 9e6 || d > 11e6 {
		t.Fatalf("long link %v m", d)
	}
}

func TestVisibilityBlockedByEarth(t *testing.T) {
	// Antipodal satellites at LEO cannot see each other through the Earth.
	l := InPlanePair(1000e3, 180)
	if l.Visible(0) {
		t.Fatal("antipodal satellites should be occluded")
	}
	// Close satellites can.
	l2 := InPlanePair(1000e3, 20)
	if !l2.Visible(0) {
		t.Fatal("nearby satellites should see each other")
	}
}

func TestCrossPlaneWindows(t *testing.T) {
	l := CrossPlanePair(1000e3, 60, 90, 0)
	horizon := 4 * l.A.Period()
	ws := l.Windows(horizon, 10*time.Second)
	if len(ws) == 0 {
		t.Fatal("no visibility windows found over four orbits")
	}
	var total time.Duration
	for _, w := range ws {
		if w.End <= w.Start {
			t.Fatalf("degenerate window %v", w)
		}
		total += w.Duration()
		// Every window midpoint must actually be visible.
		mid := w.Start + w.Duration()/2
		if !l.Visible(mid) {
			t.Fatalf("midpoint of %v not visible", w)
		}
	}
	if total >= horizon {
		t.Fatal("satellites in crossing planes should lose sight sometimes")
	}
	if ws[0].String() == "" {
		t.Fatal("window formatting broken")
	}
}

func TestWindowsEdgeAccuracy(t *testing.T) {
	l := CrossPlanePair(1000e3, 60, 90, 0)
	ws := l.Windows(2*l.A.Period(), 30*time.Second)
	if len(ws) == 0 {
		t.Skip("no window in horizon")
	}
	for _, w := range ws {
		// Just outside the refined edges visibility must flip within a
		// small guard band (bisection refines to ~1ms).
		if w.Start > 0 && l.Visible(w.Start-2*time.Millisecond) && !l.Visible(w.Start+2*time.Millisecond) {
			t.Fatalf("start edge of %v mislocated", w)
		}
	}
}

func TestStats(t *testing.T) {
	l := InPlanePair(1000e3, 30)
	w := Window{Start: 0, End: 10 * time.Minute}
	st := l.Stats(w, time.Second)
	if st.Samples == 0 {
		t.Fatal("no samples")
	}
	if math.Abs(st.MinM-st.MaxM) > 1 {
		t.Fatalf("constant-range link has spread %v", st.MaxM-st.MinM)
	}
	if math.Abs(st.MeanM-st.MidrangeM()) > 1 {
		t.Fatalf("mean %v vs midrange %v", st.MeanM, st.MidrangeM())
	}
	if st.VarM2 > 1 {
		t.Fatalf("variance %v for constant range", st.VarM2)
	}
	if st.AlphaM() > 1 {
		t.Fatalf("alpha %v for constant range", st.AlphaM())
	}
}

func TestStatsVaryingRange(t *testing.T) {
	l := CrossPlanePair(1000e3, 60, 30, 10)
	ws := l.Windows(2*l.A.Period(), 10*time.Second)
	if len(ws) == 0 {
		t.Skip("no window")
	}
	st := l.Stats(ws[0], time.Second)
	if st.MaxM <= st.MinM {
		t.Fatal("cross-plane range should vary")
	}
	if st.AlphaM() <= 0 {
		t.Fatal("alpha should be positive for varying range")
	}
	if st.TimeoutAlpha() <= 0 {
		t.Fatal("timeout alpha should be positive")
	}
	rt := st.RoundTrip()
	want := 2 * PropagationDelay(st.MidrangeM())
	if rt != want {
		t.Fatalf("RoundTrip = %v, want %v", rt, want)
	}
}

func TestPropagationDelay(t *testing.T) {
	d := PropagationDelay(2.99792458e8) // one light-second of range
	if d < 999*time.Millisecond || d > 1001*time.Millisecond {
		t.Fatalf("delay = %v, want ~1s", d)
	}
	// Paper's regime: 10–100 ms one-way for 3,000–30,000 km.
	if d := PropagationDelay(3e6); d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("3000 km delay = %v", d)
	}
	// Round trip through the inverse.
	if r := RangeForDelay(PropagationDelay(5e6)); math.Abs(r-5e6) > 1 {
		t.Fatalf("RangeForDelay inverse off: %v", r)
	}
}

func TestVec3(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v", v.Norm())
	}
	if got := v.Scale(2); got != (Vec3{6, 8, 0}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Sub(Vec3{1, 1, 1}); got != (Vec3{2, 3, -1}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Dot(Vec3{1, 2, 3}); got != 11 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestWindowsBadStepPanics(t *testing.T) {
	l := InPlanePair(1000e3, 30)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Windows(time.Hour, 0)
}

func TestStatsBadStepPanics(t *testing.T) {
	l := InPlanePair(1000e3, 30)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Stats(Window{0, time.Hour}, 0)
}

// TestWindowsAlwaysVisible covers the no-transition path of Windows: an
// in-plane close pair never loses line of sight, so the scan must return
// exactly one window spanning the whole horizon — both edges "touching" the
// horizon ends without ever entering the bisection.
func TestWindowsAlwaysVisible(t *testing.T) {
	l := InPlanePair(780e3, 45) // adjacent in-plane neighbors: constant range, clear LOS
	horizon := 2 * l.A.Period()
	ws := l.Windows(horizon, 10*time.Second)
	if len(ws) != 1 {
		t.Fatalf("always-visible pair: %d windows, want 1 (%v)", len(ws), ws)
	}
	if ws[0].Start != 0 || ws[0].End != horizon {
		t.Fatalf("window %v, want [0, %v]", ws[0], horizon)
	}
}

// TestWindowsNeverVisible covers the all-blocked path: two satellites
// antipodal in the same plane stay antipodal forever (same mean motion), so
// the Earth blocks the line of sight at every instant and Windows must
// return nothing.
func TestWindowsNeverVisible(t *testing.T) {
	l := InPlanePair(780e3, 180)
	horizon := 2 * l.A.Period()
	if l.Visible(0) {
		t.Fatal("antipodal pair visible at epoch — geometry broken")
	}
	ws := l.Windows(horizon, 10*time.Second)
	if len(ws) != 0 {
		t.Fatalf("never-visible pair returned windows: %v", ws)
	}
}

// TestWindowsTouchingHorizonEnds covers the boundary cases of the bisection
// scan: a window already open at t=0 must start exactly at 0 (no bisected
// leading edge), and a window still open at the horizon must be closed at
// exactly the horizon. Interior edges, by contrast, must be bisected strictly
// inside the scan range and agree with Visible on both sides.
func TestWindowsTouchingHorizonEnds(t *testing.T) {
	// A phase offset chosen so the pair is visible at the epoch: the scan
	// starts inside a window.
	l := CrossPlanePair(1000e3, 60, 60, 290)
	if !l.Visible(0) {
		t.Fatal("test geometry must be visible at epoch")
	}
	// Pick a horizon that lands inside a visibility window so both ends of
	// the scan are "in window": search forward from two periods for an
	// instant that is visible.
	horizon := 2 * l.A.Period()
	for !l.Visible(horizon) {
		horizon += 10 * time.Second
	}
	ws := l.Windows(horizon, 10*time.Second)
	if len(ws) < 2 {
		t.Fatalf("expected multiple windows over %v, got %v", horizon, ws)
	}
	first, last := ws[0], ws[len(ws)-1]
	if first.Start != 0 {
		t.Fatalf("window open at epoch starts at %v, want 0", first.Start)
	}
	if last.End != horizon {
		t.Fatalf("window open at horizon ends at %v, want %v", last.End, horizon)
	}
	// Interior edges: the bisected boundary must separate visible from
	// blocked within the 1 ms refinement the bisection promises.
	eps := 2 * time.Millisecond
	for i, w := range ws {
		if i > 0 && (l.Visible(w.Start-eps) || !l.Visible(w.Start+eps)) {
			t.Fatalf("window %d leading edge %v not a visibility boundary", i, w.Start)
		}
		if i < len(ws)-1 && (!l.Visible(w.End-eps) || l.Visible(w.End+eps)) {
			t.Fatalf("window %d trailing edge %v not a visibility boundary", i, w.End)
		}
	}
}

// TestWalkerGeometry pins the Walker-delta generator: counts, canonical
// ordering, RAAN/phase spacing, and the latitude bound |lat| <= inclination.
func TestWalkerGeometry(t *testing.T) {
	w := Walker{Planes: 6, PerPlane: 11, PhasingF: 2, AltitudeM: 780e3, InclinationDeg: 86.4}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Total() != 66 {
		t.Fatalf("Total = %d, want 66", w.Total())
	}
	orbits := w.Orbits()
	if len(orbits) != 66 {
		t.Fatalf("Orbits len = %d, want 66", len(orbits))
	}
	// Canonical order: plane-major.
	if orbits[13] != w.Orbit(1, 2) {
		t.Fatal("Orbits order not plane-major")
	}
	// RAAN spacing: full circle over P planes (delta pattern).
	gotSep := orbits[w.PerPlane].RAANRad - orbits[0].RAANRad
	wantSep := 2 * math.Pi / 6
	if math.Abs(gotSep-wantSep) > 1e-12 {
		t.Fatalf("RAAN spacing %v, want %v", gotSep, wantSep)
	}
	// Inter-plane phasing: F*360/T.
	gotPh := w.Orbit(1, 0).PhaseRad - w.Orbit(0, 0).PhaseRad
	wantPh := 2 * math.Pi * 2 / 66
	if math.Abs(gotPh-wantPh) > 1e-12 {
		t.Fatalf("phasing offset %v, want %v", gotPh, wantPh)
	}
	// Latitude stays within the inclination and reaches near it over an orbit.
	inc := 86.4 * math.Pi / 180
	maxLat := 0.0
	o := orbits[0]
	tr := o.Track()
	for dt := time.Duration(0); dt < o.Period(); dt += 10 * time.Second {
		lat := math.Abs(tr.Latitude(dt))
		if lat > inc+1e-9 {
			t.Fatalf("latitude %v exceeds inclination %v", lat, inc)
		}
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat < inc-0.05 {
		t.Fatalf("max latitude %v never approached inclination %v", maxLat, inc)
	}
	// Validate rejects nonsense.
	if (Walker{Planes: 0, PerPlane: 1, AltitudeM: 1}).Validate() == nil {
		t.Fatal("Validate accepted 0 planes")
	}
	if (Walker{Planes: 4, PerPlane: 4, PhasingF: 4, AltitudeM: 1}).Validate() == nil {
		t.Fatal("Validate accepted F >= P")
	}
	if (Walker{Planes: 4, PerPlane: 4, AltitudeM: 0}).Validate() == nil {
		t.Fatal("Validate accepted zero altitude")
	}
}
