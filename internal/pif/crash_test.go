package pif

import (
	"math"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/sim"
)

// TestCrashBlocksDecisionButNeverFakesIt documents the model boundary the
// paper defers to future work: with a crashed participant the initiator's
// computation cannot decide (liveness requires every process), but it also
// never decides SPURIOUSLY — the handshake cannot be completed by garbage,
// crash or no crash.
func TestCrashBlocksDecisionButNeverFakesIt(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 3, sim.WithSeed(13), sim.WithFaults(&core.FaultPlan{
		Crashes: []core.CrashWindow{{Proc: 2, Until: math.MaxInt64}},
	}))
	machines[0].Invoke(net.Env(0), core.Payload{Tag: "m", Num: 1})
	err := net.RunUntil(machines[0].Done, 500000)
	if err == nil {
		t.Fatal("decision reached with a crashed participant: fabricated completion")
	}
	// The live pair's handshake completed; only the crashed one blocks.
	if got := machines[0].State[1]; got != machines[0].FlagTop() {
		t.Fatalf("live handshake at flag %d, want %d", got, machines[0].FlagTop())
	}
	if got := machines[0].State[2]; got == machines[0].FlagTop() {
		t.Fatal("handshake with the crashed process 'completed'")
	}
}

// TestCrashAfterDecisionHarmless: a crash after the computation decided
// does not retroactively affect it, and new computations among live
// processes of a DIFFERENT system (excluding the crashed one) are a
// deployment concern, not a protocol one — the paper's model has no
// membership change. This test pins the first half.
func TestCrashAfterDecisionHarmless(t *testing.T) {
	t.Parallel()
	// Process 1 crashes for good at step crashAt, after the decision.
	const crashAt = 100_000
	net, machines := testNet(t, 3, sim.WithSeed(17), sim.WithFaults(&core.FaultPlan{
		Crashes: []core.CrashWindow{{Proc: 1, From: crashAt, Until: math.MaxInt64}},
	}))
	machines[0].Invoke(net.Env(0), core.Payload{Tag: "m", Num: 1})
	if err := net.RunUntil(machines[0].Done, crashAt-1); err != nil {
		t.Fatal(err)
	}
	// The decided state is stable.
	for net.StepCount() < crashAt+1000 {
		net.Step()
	}
	if !machines[0].Done() {
		t.Fatal("a crash after the decision un-decided the computation")
	}
}
