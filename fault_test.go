package snapstab_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// chaosOptions returns a moderate all-faults plan suitable for every
// substrate: link policies only, so the same plan value is meaningful
// whether ticks are scheduler steps (Sim) or milliseconds (Runtime, UDP).
func chaosFaults(seed uint64) snapstab.FaultPlan {
	return snapstab.FaultPlan{
		Seed: seed,
		Default: snapstab.LinkFaults{
			DropRate:    0.10,
			DupRate:     0.08,
			ReorderRate: 0.08,
			DelayRate:   0.04,
			DelayTicks:  20,
			CorruptRate: 0.04,
		},
	}
}

// TestSameFaultPlanAcrossSubstrates is the tentpole's acceptance test:
// one seeded FaultPlan drives a corrupted PIF cluster on all four
// substrates through WithFaults, and on each the snap-stabilization
// guarantee holds value for value (the broadcast decides on exactly the
// feedback of this computation) while the plan demonstrably injected
// faults.
func TestSameFaultPlanAcrossSubstrates(t *testing.T) {
	for _, tc := range []struct {
		name string
		sub  snapstab.Substrate
	}{
		{"sim", snapstab.Sim()},
		{"runtime", snapstab.Runtime()},
		{"udp", snapstab.UDP()},
		{"tcp", snapstab.TCP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := snapstab.NewPIFCluster(3,
				snapstab.WithSubstrate(tc.sub),
				snapstab.WithSeed(11),
				snapstab.WithFaults(chaosFaults(23)))
			defer c.Close()
			c.CorruptEverything(42)
			for round := int64(0); round < 3; round++ {
				fb, err := c.Broadcast(0, "chaos", 100+round)
				if err != nil {
					t.Fatalf("round %d: %v (faults: %+v)", round, err, c.FaultStats())
				}
				if len(fb) != 2 {
					t.Fatalf("round %d: %d feedbacks, want 2", round, len(fb))
				}
				for _, f := range fb {
					if f.Value.Num != (100+round)*1000+int64(f.From) {
						t.Fatalf("round %d: feedback %+v not derived from this broadcast", round, f)
					}
				}
			}
			if c.FaultStats().Total() == 0 {
				t.Fatal("fault plan injected nothing")
			}
			// The concurrent substrates inject per receiver: the cluster
			// totals are the sum of the per-node counters (the simulator
			// has one injector and no per-node counters).
			c.Close()
			var sum snapstab.FaultStats
			for _, s := range c.TransportStats() {
				sum.Drops += s.Faults.Drops
				sum.Duplicates += s.Faults.Duplicates
				sum.Reorders += s.Faults.Reorders
				sum.Delays += s.Faults.Delays
				sum.Corrupts += s.Faults.Corrupts
				sum.PartitionDrops += s.Faults.PartitionDrops
				sum.CrashDrops += s.Faults.CrashDrops
			}
			if total := c.FaultStats(); tc.name != "sim" && sum != total {
				t.Fatalf("FaultStats() = %+v, per-node Faults sum to %+v", total, sum)
			}
		})
	}
}

// TestEmptyFaultPlanIsFree pins the façade half of the free-when-off
// contract: a zero-value FaultPlan produces the exact execution of a
// cluster without one — same scheduler counters, same results — so the
// experiment tables built on the deterministic substrate stay
// byte-identical.
func TestEmptyFaultPlanIsFree(t *testing.T) {
	t.Parallel()
	run := func(opts ...snapstab.Option) ([]snapstab.Feedback, interface{}) {
		c := snapstab.NewPIFCluster(4, append([]snapstab.Option{snapstab.WithSeed(5)}, opts...)...)
		defer c.Close()
		c.CorruptEverything(9)
		fb, err := c.Broadcast(0, "x", 1)
		if err != nil {
			t.Fatalf("broadcast: %v", err)
		}
		return fb, c.Stats()
	}
	fbNil, statsNil := run()
	fbEmpty, statsEmpty := run(snapstab.WithFaults(snapstab.FaultPlan{}))
	if len(fbNil) != len(fbEmpty) {
		t.Fatalf("feedback counts differ: %d vs %d", len(fbNil), len(fbEmpty))
	}
	for i := range fbNil {
		if fbNil[i] != fbEmpty[i] {
			t.Fatalf("feedback %d differs: %+v vs %+v", i, fbNil[i], fbEmpty[i])
		}
	}
	if statsNil != statsEmpty {
		t.Fatalf("empty plan perturbed the scheduler: %+v vs %+v", statsNil, statsEmpty)
	}
}

// TestArmSpecJudgesChaosBroadcast checks Specification 1 online while a
// fault plan batters the network: the armed computation must start,
// decide, and produce zero Correctness/Decision violations.
func TestArmSpecJudgesChaosBroadcast(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(4,
		snapstab.WithSeed(3),
		snapstab.WithFaults(chaosFaults(7)))
	defer c.Close()
	c.CorruptEverything(13)
	for round := int64(0); round < 3; round++ {
		if err := c.ArmSpec(0, "spec", 500+round); err != nil {
			t.Fatalf("ArmSpec: %v", err)
		}
		if _, err := c.Broadcast(0, "spec", 500+round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rep := c.SpecReport()
		if !rep.Started || !rep.Decided {
			t.Fatalf("round %d: started=%v decided=%v", round, rep.Started, rep.Decided)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("round %d: specification violated under faults: %v", round, rep.Violations)
		}
	}
}

// TestArmSpecJudgesRuntime checks Specification 1 online on the
// concurrent engine: events from every process's section reach the
// checker under its lock, and each armed computation after a corrupted
// start, under a fault plan, starts and decides value-for-value with no
// violation.
func TestArmSpecJudgesRuntime(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(3,
		snapstab.WithSubstrate(snapstab.Runtime()),
		snapstab.WithFaults(snapstab.FaultPlan{Seed: 4, Default: snapstab.LinkFaults{DropRate: 0.1, DupRate: 0.1, ReorderRate: 0.1}}))
	defer c.Close()
	c.CorruptEverything(5)
	for round := int64(0); round < 3; round++ {
		if err := c.ArmSpec(int(round%3), "spec", 700+round); err != nil {
			t.Fatalf("ArmSpec: %v", err)
		}
		if _, err := c.Broadcast(int(round%3), "spec", 700+round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rep := c.SpecReport()
		if !rep.Started || !rep.Decided || !rep.ValueChecked {
			t.Fatalf("round %d: started=%v decided=%v value-checked=%v", round, rep.Started, rep.Decided, rep.ValueChecked)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("round %d: specification violated: %v", round, rep.Violations)
		}
	}
}

// TestFaultStatsSurfaceInTransportStats checks the per-node UDP counter
// surface.
func TestFaultStatsSurfaceInTransportStats(t *testing.T) {
	c := snapstab.NewPIFCluster(3,
		snapstab.WithSubstrate(snapstab.UDP()),
		snapstab.WithFaults(snapstab.FaultPlan{Seed: 2, Default: snapstab.LinkFaults{DupRate: 0.4}}))
	defer c.Close()
	if _, err := c.Broadcast(0, "x", 1); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	var total int64
	for _, s := range c.TransportStats() {
		total += s.Faults.Total()
	}
	if total == 0 {
		t.Fatal("no faults surfaced in TransportStats")
	}
}

// TestCrashAndPartitionWindowsOnFacade exercises the scheduled faults
// through the public API on the deterministic substrate, where the
// outcome is exactly reproducible: a partition that cuts the initiator
// off stalls its broadcast until the heal.
func TestCrashAndPartitionWindowsOnFacade(t *testing.T) {
	t.Parallel()
	plan := snapstab.FaultPlan{
		Seed:       1,
		Partitions: []snapstab.PartitionWindow{{From: 0, Until: 4_000, GroupA: []int{0}}},
		Crashes:    []snapstab.CrashWindow{{Proc: 1, From: 0, Until: 2_000}},
		Unit:       time.Millisecond, // ignored by Sim; documents intent
	}
	c := snapstab.NewPIFCluster(3, snapstab.WithSeed(8), snapstab.WithFaults(plan))
	defer c.Close()
	fb, err := c.Broadcast(0, "after-heal", 9)
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if len(fb) != 2 {
		t.Fatalf("%d feedbacks, want 2", len(fb))
	}
	st := c.FaultStats()
	if st.PartitionDrops == 0 {
		t.Fatalf("partition never dropped anything: %+v", st)
	}
}

// TestRuntimeLossRateIsTheDropPlan: on Runtime WithLossRate is the fault
// plane's drop — the losses read in FaultStats().Drops, not in
// MailboxDrops — and stating it beside a plan is refused at construction.
func TestRuntimeLossRateIsTheDropPlan(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.Runtime()), snapstab.WithLossRate(0.3))
	defer c.Close()
	if _, err := c.Broadcast(0, "lossy", 1); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if c.FaultStats().Drops == 0 {
		t.Fatal("WithLossRate dropped nothing")
	}
	for p, s := range c.TransportStats() {
		if s.MailboxDrops != 0 {
			t.Errorf("node %d: %d MailboxDrops at a window-respecting sender's receiver", p, s.MailboxDrops)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "state the loss in the plan") {
			t.Fatalf("WithLossRate beside WithFaults on Runtime: recovered %v", r)
		}
	}()
	snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.Runtime()),
		snapstab.WithLossRate(0.3), snapstab.WithFaults(snapstab.FaultPlan{Seed: 1, Default: snapstab.LinkFaults{DupRate: 0.1}}))
}
