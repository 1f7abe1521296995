package runtime

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

func TestPIFUnderFaultPlan(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	plan := &core.FaultPlan{
		Seed: 5,
		Default: core.LinkFaults{
			DropRate:    0.15,
			DupRate:     0.10,
			ReorderRate: 0.10,
			DelayRate:   0.05,
			DelayTicks:  3,
			CorruptRate: 0.05,
		},
	}
	e := start(t, stacks, engine.WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 4}
	e.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	if !waitFor(t, 30*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d
	}) {
		t.Fatalf("broadcast did not survive the fault plan (faults: %+v)", e.FaultStats())
	}
	if e.FaultStats().Total() == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

func TestCrashRestartWindowOnRuntime(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	plan := &core.FaultPlan{
		Seed:    5,
		Unit:    time.Millisecond,
		Crashes: []core.CrashWindow{{Proc: 1, From: 0, Until: 250}},
	}
	e := start(t, stacks, engine.WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 9}
	e.Do(0, func(env core.Env) { machines[0].Invoke(env, token) })
	// The PIF decision needs feedback from process 1, so completion
	// implies the crash window ended and the warm restart worked.
	if !waitFor(t, 30*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d
	}) {
		t.Fatalf("broadcast did not complete after the crash window (faults: %+v)", e.FaultStats())
	}
	if e.FaultStats().CrashDrops == 0 {
		t.Fatal("no arrivals were consumed during the crash window")
	}
}

func TestPartitionWindowOnRuntime(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(4)
	plan := &core.FaultPlan{
		Seed:       5,
		Unit:       time.Millisecond,
		Partitions: []core.PartitionWindow{{From: 0, Until: 250, GroupA: []core.ProcID{0}}},
	}
	e := start(t, stacks, engine.WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 2}
	e.Do(0, func(env core.Env) { machines[0].Invoke(env, token) })
	if !waitFor(t, 30*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d
	}) {
		t.Fatalf("broadcast did not complete after the heal (faults: %+v)", e.FaultStats())
	}
	if e.FaultStats().PartitionDrops == 0 {
		t.Fatal("no messages were dropped by the partition")
	}
}
