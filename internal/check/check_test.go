package check

import (
	"fmt"
	"strings"
	"testing"
)

// TestSafetyPaperProtocolExhaustive is the headline verification: the
// paper's flag domain {0..4} admits no execution, from any abstract
// initial configuration, in which the started computation accepts stale
// feedback. This machine-checks the causal content of Lemmas 4-6.
func TestSafetyPaperProtocolExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	t.Parallel()
	res, err := Safety(Options{FlagTop: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("violation found:\n%s\nconfig: %s\ntrace:\n%v",
			res.Violation.Description, res.Violation.Config, res.Violation.Trace)
	}
	if !res.Exhaustive {
		t.Fatal("exploration was not exhaustive")
	}
	if res.Explored < res.InitialConfigs {
		t.Fatalf("explored %d < initial %d; exploration is broken", res.Explored, res.InitialConfigs)
	}
	t.Logf("exhaustive: %d initial configurations, %d reachable states, no violation",
		res.InitialConfigs, res.Explored)
}

// TestSafetyAblationFindsViolations is the E9 ablation: every flag domain
// smaller than the paper's admits a garbage-driven stale decision, and the
// checker produces the counter-example; -v prints each one step by step.
func TestSafetyAblationFindsViolations(t *testing.T) {
	t.Parallel()
	for _, top := range []int{1, 2, 3} {
		top := top
		t.Run(fmt.Sprintf("FlagTop=%d", top), func(t *testing.T) {
			t.Parallel()
			res, err := Safety(Options{FlagTop: top, TraceViolation: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatal("no violation found; the ablation should be unsound")
			}
			if len(res.Violation.Trace) == 0 {
				t.Fatal("violation without counter-example trace")
			}
			t.Logf("%s in %s\n  %d-step counter-example:\n    %s",
				res.Violation.Description, res.Violation.Config, len(res.Violation.Trace),
				strings.Join(res.Violation.Trace, "\n    "))
		})
	}
}

// TestSafetyFlagTopFiveAlsoSafe: a larger-than-necessary flag domain stays
// safe (the bound is about a minimum, not an exact value).
func TestSafetyFlagTopFiveAlsoSafe(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	t.Parallel()
	res, err := Safety(Options{FlagTop: 5, MaxStates: 300_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("FlagTop=5 violated: %s", res.Violation.Description)
	}
}

// TestTerminationPaperProtocol checks the Termination clause exhaustively
// on the payload-free abstraction.
func TestTerminationPaperProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration skipped in -short mode")
	}
	t.Parallel()
	res, err := Termination(Options{FlagTop: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.PTrapped != 0 || res.QTrapped != 0 {
		t.Fatalf("trapped configurations: p=%d q=%d, e.g. %s", res.PTrapped, res.QTrapped, res.SampleTrap)
	}
	t.Logf("termination: %d states, %d edges, no traps", res.States, res.Edges)
}

// TestTerminationAblatedStillTerminates: small flag domains break safety
// but not termination — handshakes still complete, just too easily.
func TestTerminationAblatedStillTerminates(t *testing.T) {
	t.Parallel()
	for _, top := range []int{1, 2, 3} {
		top := top
		t.Run(fmt.Sprintf("FlagTop=%d", top), func(t *testing.T) {
			t.Parallel()
			res, err := Termination(Options{FlagTop: top})
			if err != nil {
				t.Fatal(err)
			}
			if res.PTrapped != 0 || res.QTrapped != 0 {
				t.Fatalf("trapped configurations: p=%d q=%d, e.g. %s", res.PTrapped, res.QTrapped, res.SampleTrap)
			}
		})
	}
}

func TestStateSpaceLimit(t *testing.T) {
	t.Parallel()
	if _, err := Safety(Options{FlagTop: 4, MaxStates: 1000}); err == nil {
		t.Fatal("oversized space not rejected")
	}
	if _, err := Termination(Options{FlagTop: 4, MaxStates: 1000}); err == nil {
		t.Fatal("oversized space not rejected")
	}
}

// TestEncodeDecodeRoundTrip exercises the packing over the whole space of
// a small domain.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	for _, safety := range []bool{true, false} {
		e := newExplorer(2, safety)
		var c conf
		for idx := uint64(0); idx < e.total; idx++ {
			e.decode(idx, &c)
			if got := e.encode(&c); got != idx {
				t.Fatalf("safety=%v: decode/encode(%d) = %d", safety, idx, got)
			}
		}
	}
}

func TestRenderReadable(t *testing.T) {
	t.Parallel()
	e := newExplorer(4, true)
	var c conf
	e.decode(12345, &c)
	if s := e.render(&c); s == "" {
		t.Fatal("empty rendering")
	}
}

func BenchmarkSafetySuccessors(b *testing.B) {
	e := newExplorer(4, true)
	for i := 0; i < b.N; i++ {
		idx := uint64(i) % e.total
		for op := 0; op < numOps; op++ {
			e.decode(idx, &e.cur)
			e.apply(op)
		}
	}
}

// TestWindowExhaustive drives the transports' link window through every
// configuration reachable over a lossy, duplicating FIFO with an
// order-free receiver pipeline and one peer restart: the capacity bound
// holds in each, and none is wedged.
func TestWindowExhaustive(t *testing.T) {
	for _, c := range []int{1, 2} {
		res := Window(c)
		t.Logf("c=%d: %d states, %d edges", c, res.States, res.Edges)
		if res.Violation != "" {
			t.Errorf("c=%d: %s", c, res.Violation)
		}
		if res.Wedged != 0 {
			t.Errorf("c=%d: %d wedged configurations, e.g. %s", c, res.Wedged, res.SampleWedge)
		}
		if res.States < 100 {
			t.Errorf("c=%d: only %d states explored; the model lost its transitions", c, res.States)
		}
	}
}
