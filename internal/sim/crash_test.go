package sim

import (
	"math"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

// crashedForGood crashes the listed processes permanently: crash windows
// open from the first step that never close.
func crashedForGood(procs ...core.ProcID) Option {
	plan := &core.FaultPlan{}
	for _, p := range procs {
		plan.Crashes = append(plan.Crashes, core.CrashWindow{Proc: p, Until: math.MaxInt64})
	}
	return WithFaults(plan)
}

func TestCrashSilencesProcess(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks, crashedForGood(1))
	// The crashed process fires no actions.
	if net.Activate(1) {
		t.Fatal("crashed process fired an action")
	}
	// Messages to the crashed process are consumed with no effect.
	net.Activate(0) // p0 sends PING to p1
	k := LinkKey{From: 0, To: 1, Instance: "ping"}
	if !net.Deliver(k) {
		t.Fatal("delivery to crashed process did not consume the message")
	}
	if got := net.Link(LinkKey{From: 1, To: 0, Instance: "ping"}).Len(); got != 0 {
		t.Fatalf("crashed process replied: %d messages", got)
	}
}

func TestCrashBreaksLivenessNotSafety(t *testing.T) {
	t.Parallel()
	// The model excludes crashes; this documents the boundary: a peer
	// crashing mid-computation blocks the initiator's decision forever
	// (liveness lost) but never produces a bogus completion (safety kept).
	stacks, machines := pingerStacks(3)
	net := New(stacks, WithSeed(5), crashedForGood(2))
	err := net.RunUntil(machines[0].Done, 200000)
	if err == nil {
		t.Fatal("initiator completed although a peer crashed; completion is fabricated")
	}
	// p0 did collect the live peer's reply (partial progress), just not
	// the crashed one's.
	if !machines[0].acked[1] {
		t.Fatal("live peer's reply lost too; scheduler starved the live pair")
	}
	if machines[0].acked[2] {
		t.Fatal("acknowledgment recorded from a crashed process")
	}
}

func TestCrashedProcessStopsRoundAccounting(t *testing.T) {
	t.Parallel()
	// Rounds still advance: crashed processes are activated (no-op) like
	// any other scheduler choice and must not wedge the round counter.
	stacks, _ := pingerStacks(2)
	net := New(stacks, crashedForGood(1))
	for i := 0; i < 100; i++ {
		net.Step()
	}
	if net.Stats().Rounds == 0 {
		t.Fatal("rounds stopped advancing after a crash")
	}
}
