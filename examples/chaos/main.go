// Chaos: one seeded fault plan batters the same cluster on two
// substrates — and every request still satisfies its specification.
//
// A FaultPlan composes per-link fault policies (drop, duplicate, reorder,
// delay, and in-flight corruption, which the receiver's integrity check
// turns into one more loss) with scheduled faults (a split-brain
// partition that heals, a crash-restart window). Installed with one
// option, the plan runs natively inside whichever engine executes the
// cluster: the deterministic simulator replays it exactly from the seed;
// the concurrent runtime applies the same seeded decision streams under
// real concurrency.
//
// Snap-stabilization is exactly the claim this exercises: every started
// request satisfies its specification from an arbitrary configuration
// under loss, duplication, and reordering — so the broadcast below
// returns only genuine, per-computation acknowledgments no matter what
// the plan does to the network.
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	snapstab "github.com/snapstab/snapstab"
)

// plan is the adversary: flaky links everywhere, plus a partition that
// cuts process 0 off and heals, plus process 2 crashing and restarting.
// Tick units: scheduler steps on the simulator, milliseconds on the
// concurrent substrates.
func plan(until int64) snapstab.FaultPlan {
	return snapstab.FaultPlan{
		Seed: 99,
		Default: snapstab.LinkFaults{
			DropRate:    0.10,
			DupRate:     0.10,
			ReorderRate: 0.10,
			DelayRate:   0.05,
			DelayTicks:  until / 100,
			CorruptRate: 0.05,
		},
		Partitions: []snapstab.PartitionWindow{
			{From: 0, Until: until, GroupA: []int{0}},
		},
		Crashes: []snapstab.CrashWindow{
			{Proc: 2, From: 0, Until: until / 2},
		},
	}
}

func run(name string, cluster *snapstab.PIFCluster) {
	defer cluster.Close()
	cluster.CorruptEverything(7) // arbitrary initial configuration on top

	feedback, err := cluster.Broadcast(0, "still-there", 42)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("--- %s ---\n", name)
	fmt.Printf("broadcast decided with %d acknowledgments despite:\n", len(feedback))
	st := cluster.FaultStats()
	fmt.Printf("  %d drops, %d duplicates, %d reorders, %d delays, %d garbled in flight and discarded\n",
		st.Drops, st.Duplicates, st.Reorders, st.Delays, st.Corrupts)
	fmt.Printf("  %d partition drops, %d arrivals consumed by the crashed process\n",
		st.PartitionDrops, st.CrashDrops)
}

func main() {
	// Simulator ticks are scheduler steps: the partition spans the first
	// 4000 steps and replays identically on every run.
	run("deterministic simulator", snapstab.NewPIFCluster(4,
		snapstab.WithSeed(2024),
		snapstab.WithFaults(plan(4_000))))

	// Runtime ticks are milliseconds: the partition spans the first
	// 200ms of real time, the crash window the first 100ms.
	run("concurrent runtime", snapstab.NewPIFCluster(4,
		snapstab.WithSubstrate(snapstab.Runtime()),
		snapstab.WithSeed(2024),
		snapstab.WithFaults(plan(200))))
}
