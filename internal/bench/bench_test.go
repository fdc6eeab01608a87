package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunPerfectChannel(t *testing.T) {
	c := Base()
	c.N = 200
	res := Run(c)
	if res.Lost != 0 {
		t.Fatalf("lost %d on perfect channel", res.Lost)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicates", res.Duplicates)
	}
	if res.Retransmissions != 0 {
		t.Fatal("retransmissions on perfect channel")
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Fatalf("efficiency = %v", res.Efficiency)
	}
	if res.TransPerFrame != 1 {
		t.Fatalf("s̄ = %v, want 1", res.TransPerFrame)
	}
}

func TestRunHDLCAndGBN(t *testing.T) {
	for _, proto := range []Protocol{SRHDLC, GBNHDLC} {
		c := withErrors(Base(), 0.05, 0.01)
		c.Protocol = proto
		c.N = 200
		res := Run(c)
		if res.Lost != 0 {
			t.Fatalf("%v lost %d", proto, res.Lost)
		}
		if res.TransPerFrame < 1 {
			t.Fatalf("%v s̄ = %v", proto, res.TransPerFrame)
		}
	}
	if LAMS.String() == "" || SRHDLC.String() == "" || GBNHDLC.String() == "" || Protocol("bogus").String() == "" {
		t.Fatal("protocol names")
	}
}

func TestRunDeterministic(t *testing.T) {
	c := withErrors(Base(), 0.1, 0.02)
	c.N = 300
	a := Run(c)
	b := Run(c)
	if a.Retransmissions != b.Retransmissions || a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
	}
}

func TestAnalyticalMapping(t *testing.T) {
	c := withErrors(Base(), 0.1, 0.02)
	p := c.Analytical()
	if p.PF != 0.1 || p.PC != 0.02 {
		t.Fatal("error probabilities not mapped")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("mapped params invalid: %v", err)
	}
	// Models without a closed-form per-frame probability map to NaN (the
	// analytic columns render "-"), never to a silent 0.
	c.IModelSpec = "bsc:ber=1e-6"
	if !math.IsNaN(c.Analytical().PF) {
		t.Fatal("BSC should map to NaN, not a fixed P_F")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "EX", Title: "demo"}
	r.check("always", true, "fine")
	r.check("never", false, "broken")
	out := r.Render()
	for _, want := range []string{"EX", "demo", "PASS", "FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Fatal("Passed with a failing check")
	}
}

func TestByID(t *testing.T) {
	if ByID("E1") == nil || ByID("E12") == nil {
		t.Fatal("known experiment missing")
	}
	if ByID("E99") != nil {
		t.Fatal("unknown experiment resolved")
	}
}

func TestHelpers(t *testing.T) {
	if fmtDur(2*sim.Second) != "2s" {
		t.Fatalf("fmtDur s: %q", fmtDur(2*sim.Second))
	}
	if fmtDur(3*sim.Millisecond) != "3ms" {
		t.Fatalf("fmtDur ms: %q", fmtDur(3*sim.Millisecond))
	}
	if fmtDur(5*sim.Microsecond) != "5us" {
		t.Fatalf("fmtDur us: %q", fmtDur(5*sim.Microsecond))
	}
	if fmtRatio(1, 0) != "inf" {
		t.Fatal("fmtRatio zero")
	}
	if fmtRatio(3, 2) != "1.50x" {
		t.Fatalf("fmtRatio: %q", fmtRatio(3, 2))
	}
	if !near(100, 101, 0.02) || near(100, 150, 0.02) || !near(0, 0, 0.1) {
		t.Fatal("near")
	}
}

// TestExperimentsPass runs the full experiment suite and requires every
// shape check to pass — the repository-level statement that the paper's
// claims reproduce. This is the long tail of the test suite (~seconds).
func TestExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	for _, res := range All() {
		res := res
		t.Run(res.ID, func(t *testing.T) {
			for _, c := range res.Checks {
				if !c.Pass {
					t.Errorf("%s check %q failed: %s\n%s", res.ID, c.Name, c.Detail, res.Table.String())
				}
			}
		})
	}
}
