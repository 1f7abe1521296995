package sim

import (
	"errors"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

// chaosPlan is a moderate everything-at-once plan for liveness tests.
func chaosPlan(seed uint64) *core.FaultPlan {
	return &core.FaultPlan{
		Seed: seed,
		Default: core.LinkFaults{
			DropRate:    0.15,
			DupRate:     0.10,
			ReorderRate: 0.10,
			DelayRate:   0.05,
			DelayTicks:  40,
			CorruptRate: 0.05,
		},
	}
}

// trace runs one pinger network for steps scheduler steps and returns the
// full event dump, the final stats, and the final configuration hash —
// the complete observable execution.
func trace(t *testing.T, steps int, opts ...Option) (string, Stats, string) {
	t.Helper()
	stacks, _ := pingerStacks(4)
	rec := core.NewRecorder(1 << 16)
	net := New(stacks, append([]Option{WithSeed(7), WithObserver(rec)}, opts...)...)
	for i := 0; i < steps; i++ {
		net.Step()
	}
	return rec.Dump(), net.Stats(), net.ConfigHash()
}

// TestNilVsEmptyFaultPlanByteIdentical pins the tentpole's free-when-off
// contract: installing a zero-value FaultPlan changes nothing — the event
// trace, the counters, and the final configuration are byte-identical to
// a network with no plan at all. Experiment tables are a function of
// exactly these observables, so they stay byte-identical too.
func TestNilVsEmptyFaultPlanByteIdentical(t *testing.T) {
	t.Parallel()
	const steps = 600
	dumpNil, statsNil, hashNil := trace(t, steps)
	dumpEmpty, statsEmpty, hashEmpty := trace(t, steps, WithFaults(&core.FaultPlan{}))
	if dumpNil != dumpEmpty {
		t.Fatal("empty fault plan altered the event trace")
	}
	if statsNil != statsEmpty {
		t.Fatalf("empty fault plan altered stats: %+v vs %+v", statsNil, statsEmpty)
	}
	if hashNil != hashEmpty {
		t.Fatal("empty fault plan altered the final configuration")
	}
}

// TestFaultPlanReplaysFromSeed pins the determinism contract: the same
// (scheduler seed, plan) replays the same execution, fault decisions
// included; a different plan seed diverges.
func TestFaultPlanReplaysFromSeed(t *testing.T) {
	t.Parallel()
	const steps = 800
	dumpA, statsA, hashA := trace(t, steps, WithFaults(chaosPlan(3)))
	dumpB, statsB, hashB := trace(t, steps, WithFaults(chaosPlan(3)))
	if dumpA != dumpB || statsA != statsB || hashA != hashB {
		t.Fatal("same plan seed did not replay the execution")
	}
	dumpC, _, _ := trace(t, steps, WithFaults(chaosPlan(4)))
	if dumpA == dumpC {
		t.Fatal("different plan seeds produced identical executions")
	}
}

func TestPingPongCompletesUnderChaos(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(4)
	net := New(stacks, WithSeed(7), WithFaults(chaosPlan(11)))
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 2_000_000)
	if err != nil {
		t.Fatalf("ping-pong did not survive the chaos plan: %v", err)
	}
	st := net.Stats().Faults
	if st.Drops == 0 || st.Duplicates == 0 || st.Reorders == 0 || st.Corrupts == 0 {
		t.Fatalf("chaos plan injected too little: %+v", st)
	}
}

func TestCrashWindowSilencesThenRestores(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(2)
	plan := &core.FaultPlan{
		Seed:    1,
		Crashes: []core.CrashWindow{{Proc: 1, From: 0, Until: 5_000}},
	}
	net := New(stacks, WithSeed(7), WithFaults(plan))
	allDone := func() bool { return machines[0].Done() && machines[1].Done() }
	// While process 1 is down nothing can complete: its arrivals are
	// consumed and it takes no actions.
	var budget *ErrBudget
	if err := net.RunUntil(allDone, 4_000); !errors.As(err, &budget) {
		t.Fatalf("completed with process 1 down (err=%v)", err)
	}
	if machines[1].Done() {
		t.Fatal("down process made progress")
	}
	// After the window the warm-restarted process resumes and the run
	// completes.
	if err := net.RunUntil(allDone, 500_000); err != nil {
		t.Fatalf("run did not recover after the crash window: %v", err)
	}
	if net.Stats().Faults.CrashDrops == 0 {
		t.Fatal("no arrivals were consumed during the crash window")
	}
}

func TestPartitionWindowHeals(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(4)
	plan := &core.FaultPlan{
		Seed:       1,
		Partitions: []core.PartitionWindow{{From: 0, Until: 6_000, GroupA: []core.ProcID{0, 1}}},
	}
	net := New(stacks, WithSeed(7), WithFaults(plan))
	allDone := func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}
	var budget *ErrBudget
	if err := net.RunUntil(allDone, 5_000); !errors.As(err, &budget) {
		t.Fatalf("completed across an open partition (err=%v)", err)
	}
	if err := net.RunUntil(allDone, 500_000); err != nil {
		t.Fatalf("run did not complete after the heal: %v", err)
	}
	if net.Stats().Faults.PartitionDrops == 0 {
		t.Fatal("no messages were dropped by the partition")
	}
}

// seqSender emits one sequence-numbered message to process 1 per
// activation; seqReceiver records arrival order. Together they make FIFO
// violations observable end to end.
type seqSender struct{ next int64 }

func (s *seqSender) Instance() string { return "seq" }
func (s *seqSender) Step(env core.Env) bool {
	s.next++
	env.Send(1, core.Message{Instance: "seq", Kind: "N", B: core.Payload{Num: s.next}})
	return true
}
func (s *seqSender) Deliver(core.Env, core.ProcID, core.Message) {}

type seqReceiver struct{ got []int64 }

func (r *seqReceiver) Instance() string   { return "seq" }
func (r *seqReceiver) Step(core.Env) bool { return false }
func (r *seqReceiver) Deliver(_ core.Env, _ core.ProcID, m core.Message) {
	r.got = append(r.got, m.B.Num)
}

// TestReorderViolatesFIFOThroughTheScheduler pins that ReorderRate
// produces genuine out-of-order delivery through the full substrate —
// holdbacks survive the per-step flush until later traffic overtakes
// them — and that without a plan the channel stays FIFO. A held message
// keeps its channel slot, so at c = 1 nothing can overtake it: the
// chaotic run takes c = 2, where a swap stays within the bound.
func TestReorderViolatesFIFOThroughTheScheduler(t *testing.T) {
	t.Parallel()
	run := func(opts ...Option) []int64 {
		recv := &seqReceiver{}
		stacks := []core.Stack{{&seqSender{}}, {recv}}
		net := New(stacks, append([]Option{WithSeed(7)}, opts...)...)
		for i := 0; i < 4_000; i++ {
			net.Step()
		}
		return recv.got
	}
	inversions := func(got []int64) int {
		n := 0
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				n++
			}
		}
		return n
	}
	plain := run()
	if len(plain) == 0 || inversions(plain) != 0 {
		t.Fatalf("FIFO violated without a plan: %d inversions in %d deliveries", inversions(plain), len(plain))
	}
	chaotic := run(WithCapacity(2), WithFaults(&core.FaultPlan{Seed: 1, Default: core.LinkFaults{ReorderRate: 0.3}}))
	if inv := inversions(chaotic); inv == 0 {
		t.Fatalf("ReorderRate=0.3 produced no FIFO violation in %d deliveries", len(chaotic))
	}
}

// TestHeldMessageKeepsItsSlot pins the known capacity c under a plan
// that holds messages back: a delayed or reordered message is still in
// transit and keeps its channel slot (DESIGN.md §9), so after every step
// each link's queued messages plus its holdback number at most c, and a
// send into the rest is lost at the sender.
func TestHeldMessageKeepsItsSlot(t *testing.T) {
	t.Parallel()
	plan := &core.FaultPlan{Seed: 3, Default: core.LinkFaults{DelayRate: 0.3, DelayTicks: 20, ReorderRate: 0.2}}
	for _, c := range []int{1, 2} {
		stacks := []core.Stack{{&seqSender{}}, {&seqReceiver{}}}
		net := New(stacks, WithSeed(5), WithCapacity(c), WithFaults(plan))
		peak := 0
		for step := 0; step < 3_000; step++ {
			net.Step()
			for id, k := range net.linkOrder {
				held := net.inj.HeldOn(k.From, k.To, k.Instance)
				if in := net.queues[id].Len() + held; in > c {
					t.Fatalf("c = %d, step %d: link %v has %d queued and %d held, %d in transit",
						c, step, k, net.queues[id].Len(), held, in)
				}
				peak = max(peak, held)
			}
		}
		if peak == 0 || net.Stats().SendLosses == 0 {
			t.Fatalf("c = %d: peak holdback %d, %d send losses; the plan held nothing back",
				c, peak, net.Stats().SendLosses)
		}
	}
}

// TestQuiescentFalseDuringCrashWindow pins that a crash window keeps the
// network non-quiescent: the silenced process's guards cannot be probed
// and fire when the window closes.
func TestQuiescentFalseDuringCrashWindow(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(2)
	plan := &core.FaultPlan{
		Seed:    1,
		Crashes: []core.CrashWindow{{Proc: 1, From: 0, Until: 1 << 40}},
	}
	net := New(stacks, WithSeed(7), WithFaults(plan))
	// Let the run drain: process 0's pings are consumed by the down
	// process, so channels empty out while p1 still has work pending.
	for i := 0; i < 5_000; i++ {
		net.Step()
	}
	if machines[1].Done() {
		t.Fatal("down process completed")
	}
	if net.Quiescent() {
		t.Fatal("network quiescent while a crash window silences enabled actions")
	}
}

// TestQuiescentCountsHeldMessages pins that messages held inside the
// injector (delayed far beyond the horizon) keep the network
// non-quiescent: they are still in transit.
func TestQuiescentCountsHeldMessages(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	plan := &core.FaultPlan{
		Seed:    1,
		Default: core.LinkFaults{DelayRate: 0.9, DelayTicks: 1 << 40},
	}
	net := New(stacks, WithSeed(7), WithFaults(plan))
	for i := 0; i < 2_000 && net.inj.Held() == 0; i++ {
		net.Step()
	}
	if net.inj.Held() == 0 {
		t.Skip("no message held within the horizon (seed drift)")
	}
	if net.Quiescent() {
		t.Fatal("network quiescent with messages held in the injector")
	}
}

func TestInvalidFaultPlanPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid plan did not panic")
		}
	}()
	stacks, _ := pingerStacks(2)
	New(stacks, WithFaults(&core.FaultPlan{Default: core.LinkFaults{DropRate: 1.5}}))
}
