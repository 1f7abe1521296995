package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

// pinger sends PING to every peer on each activation until it has received
// a PONG from all of them; it answers every PING with a PONG. A toy
// request/reply protocol exercising the whole substrate.
type pinger struct {
	inst  string
	self  core.ProcID
	n     int
	acked map[core.ProcID]bool
}

func newPinger(inst string, self core.ProcID, n int) *pinger {
	return &pinger{inst: inst, self: self, n: n, acked: make(map[core.ProcID]bool)}
}

func (p *pinger) Instance() string { return p.inst }

func (p *pinger) Done() bool { return len(p.acked) == p.n-1 }

func (p *pinger) Step(env core.Env) bool {
	if p.Done() {
		return false
	}
	for q := 0; q < p.n; q++ {
		if q == int(p.self) || p.acked[core.ProcID(q)] {
			continue
		}
		env.Send(core.ProcID(q), core.Message{Instance: p.inst, Kind: "PING"})
	}
	return true
}

func (p *pinger) Deliver(env core.Env, from core.ProcID, m core.Message) {
	switch m.Kind {
	case "PING":
		env.Send(from, core.Message{Instance: p.inst, Kind: "PONG"})
	case "PONG":
		p.acked[from] = true
	}
}

func pingerStacks(n int) ([]core.Stack, []*pinger) {
	stacks := make([]core.Stack, n)
	machines := make([]*pinger, n)
	for i := 0; i < n; i++ {
		machines[i] = newPinger("ping", core.ProcID(i), n)
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

func TestRunUntilCompletesPingPong(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(4)
	net := New(stacks, WithSeed(7))
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 100000)
	if err != nil {
		t.Fatalf("ping-pong did not complete: %v", err)
	}
}

func TestRunUntilCompletesUnderLoss(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(3)
	net := New(stacks, WithSeed(11), WithLossRate(0.4))
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 500000)
	if err != nil {
		t.Fatalf("ping-pong did not complete under loss: %v", err)
	}
	if net.Stats().LinkLosses == 0 {
		t.Fatal("loss rate 0.4 produced zero link losses")
	}
}

func TestDeterministicReplay(t *testing.T) {
	t.Parallel()
	run := func() (Stats, int) {
		stacks, machines := pingerStacks(3)
		net := New(stacks, WithSeed(99), WithLossRate(0.2))
		_ = net.RunUntil(func() bool {
			for _, m := range machines {
				if !m.Done() {
					return false
				}
			}
			return true
		}, 100000)
		return net.Stats(), net.StepCount()
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, n1, s2, n2)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	t.Parallel()
	run := func(seed uint64) int {
		stacks, machines := pingerStacks(3)
		net := New(stacks, WithSeed(seed))
		_ = net.RunUntil(func() bool {
			for _, m := range machines {
				if !m.Done() {
					return false
				}
			}
			return true
		}, 100000)
		return net.StepCount()
	}
	if run(1) == run(2) && run(3) == run(4) && run(5) == run(6) {
		t.Fatal("six different seeds produced pairwise identical step counts; scheduler likely ignores the seed")
	}
}

func TestCapacityOneLosesOverflow(t *testing.T) {
	t.Parallel()
	// Two activations in a row without a delivery: the second PING into
	// the same capacity-1 link must be lost.
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	net.Activate(0)
	net.Activate(0)
	if got := net.Stats().SendLosses; got != 1 {
		t.Fatalf("SendLosses = %d, want 1", got)
	}
	if got := net.Link(LinkKey{From: 0, To: 1, Instance: "ping"}).Len(); got != 1 {
		t.Fatalf("link holds %d messages, want 1", got)
	}
}

func TestUnboundedAccumulates(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks, WithUnbounded())
	for i := 0; i < 10; i++ {
		net.Activate(0)
	}
	if got := net.Link(LinkKey{From: 0, To: 1, Instance: "ping"}).Len(); got != 10 {
		t.Fatalf("unbounded link holds %d messages, want 10", got)
	}
	if got := net.Stats().SendLosses; got != 0 {
		t.Fatalf("SendLosses = %d, want 0 in unbounded mode", got)
	}
}

func TestDeliverRoutesAndPongs(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(2)
	net := New(stacks)
	net.Activate(0) // p0 sends PING to p1
	k01 := LinkKey{From: 0, To: 1, Instance: "ping"}
	if !net.Deliver(k01) {
		t.Fatal("Deliver on loaded link failed")
	}
	// p1 replied with PONG synchronously.
	k10 := LinkKey{From: 1, To: 0, Instance: "ping"}
	if got := net.Link(k10).Len(); got != 1 {
		t.Fatalf("reply link holds %d, want 1", got)
	}
	if !net.Deliver(k10) {
		t.Fatal("Deliver of reply failed")
	}
	if !machines[0].Done() {
		t.Fatal("p0 did not record the PONG")
	}
}

func TestDeliverEmptyLink(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	if net.Deliver(LinkKey{From: 0, To: 1, Instance: "ping"}) {
		t.Fatal("Deliver on never-created link succeeded")
	}
	net.Link(LinkKey{From: 0, To: 1, Instance: "ping"})
	if net.Deliver(LinkKey{From: 0, To: 1, Instance: "ping"}) {
		t.Fatal("Deliver on empty link succeeded")
	}
}

func TestGarbageUnknownInstanceConsumed(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	k := LinkKey{From: 0, To: 1, Instance: "no-such-protocol"}
	if err := net.Link(k).Preload([]core.Message{{Instance: "no-such-protocol", Kind: "JUNK"}}); err != nil {
		t.Fatal(err)
	}
	if !net.Deliver(k) {
		t.Fatal("garbage message was not consumed")
	}
	if got := net.Link(k).Len(); got != 0 {
		t.Fatalf("link still holds %d messages", got)
	}
}

func TestLose(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	net.Activate(0)
	k := LinkKey{From: 0, To: 1, Instance: "ping"}
	if !net.Lose(k) {
		t.Fatal("Lose on loaded link failed")
	}
	if got := net.Stats().LinkLosses; got != 1 {
		t.Fatalf("LinkLosses = %d, want 1", got)
	}
	if net.Lose(k) {
		t.Fatal("Lose on empty link succeeded")
	}
}

func TestEventsEmitted(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	rec := core.NewRecorder(100)
	net := New(stacks, WithObserver(rec))
	net.Activate(0)
	net.Deliver(LinkKey{From: 0, To: 1, Instance: "ping"})
	kinds := make(map[core.EventKind]int)
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds[core.EvSend] < 2 { // PING plus the synchronous PONG reply
		t.Fatalf("saw %d sends, want >= 2", kinds[core.EvSend])
	}
	if kinds[core.EvDeliver] != 1 {
		t.Fatalf("saw %d deliveries, want 1", kinds[core.EvDeliver])
	}
}

func TestRoundsCount(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(3)
	net := New(stacks)
	for p := 0; p < 3; p++ {
		net.Activate(core.ProcID(p))
	}
	if got := net.Stats().Rounds; got != 1 {
		t.Fatalf("Rounds = %d after full sweep, want 1", got)
	}
	net.Activate(0)
	net.Activate(0) // repeats do not advance the round
	if got := net.Stats().Rounds; got != 1 {
		t.Fatalf("Rounds = %d, want still 1", got)
	}
}

func TestSyncRoundQuiescence(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(3)
	net := New(stacks, WithSeed(5))
	err := net.RunRoundsUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Drain any remaining replies, then the network must be quiescent.
	for i := 0; i < 10; i++ {
		net.SyncRound()
	}
	if !net.Quiescent() {
		t.Fatalf("network not quiescent after completion; %d in transit", net.InTransit())
	}
}

func TestRunUntilBudgetError(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	err := net.RunUntil(func() bool { return false }, 10)
	var budget *ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	if budget.Steps != 10 {
		t.Fatalf("budget.Steps = %d, want 10", budget.Steps)
	}
	if budget.Unit != "steps" {
		t.Fatalf("budget.Unit = %q, want %q", budget.Unit, "steps")
	}
	if !strings.Contains(budget.Error(), "10 steps") {
		t.Fatalf("error %q does not report the step budget", budget.Error())
	}
}

// TestRunRoundsUntilBudgetReportsRounds pins the ErrBudget unit: a
// round-budgeted run must report rounds (an earlier revision stuffed the
// round count into Steps, so E-runner messages mis-labelled budgets).
func TestRunRoundsUntilBudgetReportsRounds(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	err := net.RunRoundsUntil(func() bool { return false }, 7)
	var budget *ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	if budget.Rounds != 7 {
		t.Fatalf("budget.Rounds = %d, want 7", budget.Rounds)
	}
	if budget.Steps != 0 {
		t.Fatalf("budget.Steps = %d for a round-budgeted run, want 0", budget.Steps)
	}
	if budget.Unit != "rounds" {
		t.Fatalf("budget.Unit = %q, want %q", budget.Unit, "rounds")
	}
	if !strings.Contains(budget.Error(), "7 rounds") {
		t.Fatalf("error %q does not report the round budget", budget.Error())
	}
}

// TestQuiescentProbeDoesNotPerturbStats pins the probe accounting:
// Quiescent's activation sweep must not inflate Activations or Rounds —
// it lands in ProbeActivations instead.
func TestQuiescentProbeDoesNotPerturbStats(t *testing.T) {
	t.Parallel()
	stacks, machines := pingerStacks(3)
	net := New(stacks, WithSeed(5))
	if err := net.RunRoundsUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		net.SyncRound() // drain in-flight replies
	}
	before := net.Stats()
	for i := 0; i < 5; i++ {
		if !net.Quiescent() {
			t.Fatalf("network not quiescent on probe %d", i)
		}
	}
	after := net.Stats()
	if after.Activations != before.Activations {
		t.Fatalf("Quiescent inflated Activations: %d -> %d", before.Activations, after.Activations)
	}
	if after.Rounds != before.Rounds {
		t.Fatalf("Quiescent inflated Rounds: %d -> %d", before.Rounds, after.Rounds)
	}
	if got := after.ProbeActivations - before.ProbeActivations; got != 5*net.N() {
		t.Fatalf("ProbeActivations advanced by %d, want %d", got, 5*net.N())
	}
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	stacks, _ := pingerStacks(2)
	expectPanic("one process", func() { New(stacks[:1]) })
	expectPanic("loss=1", func() { New(stacks, WithLossRate(1)) })
	expectPanic("capacity 0", func() { New(stacks, WithCapacity(0)) })
}

func TestLinkValidation(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	for _, k := range []LinkKey{
		{From: 0, To: 0, Instance: "x"},
		{From: 0, To: 5, Instance: "x"},
		{From: -1, To: 1, Instance: "x"},
	} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link(%v) did not panic", k)
				}
			}()
			net.Link(k)
		}()
	}
}

// TestUnknownLinksAreNoOps: Deliver and Lose on a key that was never
// created — keys Link would reject included — report false and create
// nothing. An out-of-range key must not alias another pair's slot.
func TestUnknownLinksAreNoOps(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(3)
	net := New(stacks)
	net.Activate(0) // links 0->1 and 0->2, one PING each
	before := net.Links()
	for _, k := range []LinkKey{
		{From: 0, To: 1, Instance: "other"},
		{From: 1, To: 0, Instance: "ping"},
		{From: 0, To: 0, Instance: "ping"},
		{From: 0, To: 3, Instance: "ping"},
		{From: 3, To: 0, Instance: "ping"},
		{From: -1, To: 1, Instance: "ping"},
	} {
		if net.Deliver(k) {
			t.Errorf("Deliver(%v) succeeded", k)
		}
		if net.Lose(k) {
			t.Errorf("Lose(%v) succeeded", k)
		}
	}
	if after := net.Links(); len(after) != len(before) {
		t.Fatalf("Links() went from %v to %v", before, after)
	}
	if got := net.InTransit(); got != 2 {
		t.Fatalf("InTransit() = %d, want 2", got)
	}
	topo := New(stacks, WithTopology(core.Line(3)))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Link on a non-edge did not panic")
			}
		}()
		topo.Link(LinkKey{From: 0, To: 2, Instance: "ping"})
	}()
	if got := len(topo.Links()); got != 0 {
		t.Fatalf("a rejected Link created %d links", got)
	}
}

// TestDeliveryRoutesByMessageInstance: the receiver's machine cached on a
// link serves only messages of the link's own instance. A preloaded
// message of another instance is routed by its own instance, or consumed
// with no effect when the receiver runs no such machine.
func TestDeliveryRoutesByMessageInstance(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	reply := LinkKey{From: 1, To: 0, Instance: "ping"}
	k := LinkKey{From: 0, To: 1, Instance: "other"}
	if err := net.Link(k).Preload([]core.Message{{Instance: "ping", Kind: "PING"}}); err != nil {
		t.Fatal(err)
	}
	if !net.Deliver(k) {
		t.Fatal("preloaded PING not delivered")
	}
	if got := net.Link(reply).Len(); got != 1 {
		t.Fatalf("a PING on another instance's link drew %d replies, want 1", got)
	}
	net.Lose(reply)
	k = LinkKey{From: 0, To: 1, Instance: "ping"}
	if err := net.Link(k).Preload([]core.Message{{Instance: "nope", Kind: "PING"}}); err != nil {
		t.Fatal(err)
	}
	if !net.Deliver(k) {
		t.Fatal("garbage of an unknown instance was not consumed")
	}
	if got := net.InTransit(); got != 0 {
		t.Fatalf("garbage of an unknown instance reached the link's machine: %d messages in transit", got)
	}
}

func TestLinksSortedIsCanonical(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(3)
	net := New(stacks)
	net.Link(LinkKey{From: 2, To: 0, Instance: "b"})
	net.Link(LinkKey{From: 0, To: 1, Instance: "z"})
	net.Link(LinkKey{From: 0, To: 1, Instance: "a"})
	got := net.LinksSorted()
	want := []LinkKey{
		{From: 0, To: 1, Instance: "a"},
		{From: 0, To: 1, Instance: "z"},
		{From: 2, To: 0, Instance: "b"},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinksSorted()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestInTransit(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(3)
	net := New(stacks)
	net.Activate(0) // two PINGs
	if got := net.InTransit(); got != 2 {
		t.Fatalf("InTransit() = %d, want 2", got)
	}
}

// churner sends one message to each neighbour on every activation and
// ignores deliveries: a never-quiescent workload that keeps the scheduler's
// delivery path busy forever, for steady-state measurements.
type churner struct {
	inst string
	self core.ProcID
	n    int
}

func (c *churner) Instance() string { return c.inst }

func (c *churner) Step(env core.Env) bool {
	env.Send(core.ProcID((int(c.self)+1)%c.n), core.Message{Instance: c.inst, Kind: "CHURN"})
	return true
}

func (c *churner) Deliver(core.Env, core.ProcID, core.Message) {}

func churnStacks(n int) []core.Stack {
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = core.Stack{&churner{inst: "churn", self: core.ProcID(i), n: n}}
	}
	return stacks
}

// TestStepZeroAllocSteadyState pins the tentpole property: once every link
// exists and the pending index has grown to capacity, Step allocates
// nothing.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		for _, obs := range [][]Option{nil, {WithObserver(quietObserver{})}} {
			opts := append([]Option{WithSeed(3), WithLossRate(loss)}, obs...)
			net := New(churnStacks(8), opts...)
			for i := 0; i < 10_000; i++ { // warm up: create links, grow pending
				net.Step()
			}
			avg := testing.AllocsPerRun(5_000, func() { net.Step() })
			if avg != 0 {
				t.Errorf("loss=%v observers=%d: Step allocates %.2f objects per call in steady state, want 0", loss, len(obs), avg)
			}
		}
	}
}

// replier answers every REQ with a burst of REPLYs to its sender, then
// checks that the message it was handed still reads as it did on entry.
type replier struct {
	inst    string
	handled int
	torn    []string
}

func (r *replier) Instance() string   { return r.inst }
func (r *replier) Step(core.Env) bool { return false }

func (r *replier) Deliver(env core.Env, from core.ProcID, m core.Message) {
	if m.Kind != "REQ" {
		return
	}
	entry := m
	entry.B.Blob = append([]byte(nil), m.B.Blob...)
	for i := uint8(0); i < 4; i++ {
		env.Send(from, core.Message{Instance: r.inst, Kind: "REPLY", State: i, B: core.Payload{Tag: "reply", Num: int64(i), Blob: []byte{i}}})
	}
	r.handled++
	if !m.Equal(entry) {
		r.torn = append(r.torn, fmt.Sprintf("%v became %v", entry, m))
	}
}

// TestDeliverySurvivesReplies delivers from the ring slot into a receive
// action that sends back to its sender, on growing unbounded rings and
// through a fault plan that duplicates every message: the receiver's copy
// must not change under its own sends.
func TestDeliverySurvivesReplies(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		opts []Option
		dups bool // some REQ is delivered twice
	}{
		{"unbounded", []Option{WithUnbounded()}, false},
		{"duplicating", []Option{WithCapacity(3), WithFaults(&core.FaultPlan{Seed: 2, Default: core.LinkFaults{DupRate: 0.9}})}, true},
	} {
		repliers := []*replier{{inst: "echo"}, {inst: "echo"}}
		net := New([]core.Stack{{repliers[0]}, {repliers[1]}}, append([]Option{WithSeed(4)}, tc.opts...)...)
		for from := core.ProcID(0); from < 2; from++ {
			var reqs []core.Message
			for i := 0; i < 3; i++ {
				reqs = append(reqs, core.Message{Instance: "echo", Kind: "REQ", State: uint8(i), B: core.Payload{Tag: "req", Num: int64(from), Blob: []byte{byte(i), 7}}})
			}
			if err := net.Link(LinkKey{From: from, To: 1 - from, Instance: "echo"}).Preload(reqs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			net.Step()
		}
		if handled := repliers[0].handled + repliers[1].handled; handled < 6 || (handled > 6) != tc.dups {
			t.Errorf("%s: %d REQ deliveries of 6 preloaded", tc.name, handled)
		}
		for _, r := range repliers {
			for _, torn := range r.torn {
				t.Errorf("%s: %s", tc.name, torn)
			}
		}
	}
}

// quietObserver is a core.ProtocolObserver that reads nothing.
type quietObserver struct{}

func (quietObserver) OnEvent(core.Event) {}
func (quietObserver) IgnoresTraffic()    {}

// TestPendingIndexMatchesChannels cross-checks the incremental non-empty
// index against the ground truth after every kind of mutation, including
// out-of-band Preload through the Link accessor.
func TestPendingIndexMatchesChannels(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(4)
	net := New(stacks, WithSeed(13), WithLossRate(0.1))
	check := func(when string) {
		t.Helper()
		want := 0
		for _, k := range net.Links() {
			if net.Link(k).Len() > 0 {
				want++
			}
		}
		if got := len(net.pending); got != want {
			t.Fatalf("%s: pending holds %d links, channels hold %d non-empty", when, got, want)
		}
		for pos, id := range net.pending {
			if net.pendingPos[id] != pos {
				t.Fatalf("%s: pendingPos[%d] = %d, want %d", when, id, net.pendingPos[id], pos)
			}
			if net.queues[id].Len() == 0 {
				t.Fatalf("%s: pending link %v is empty", when, net.linkOrder[id])
			}
		}
	}
	for i := 0; i < 2_000; i++ {
		net.Step()
		check("after Step")
	}
	k := LinkKey{From: 0, To: 1, Instance: "ping"}
	if err := net.Link(k).Preload([]core.Message{{Instance: "ping", Kind: "PING"}}); err != nil {
		t.Fatal(err)
	}
	check("after Preload")
	if err := net.Link(k).Preload(nil); err != nil {
		t.Fatal(err)
	}
	check("after emptying Preload")
	for i := 0; i < 50; i++ {
		net.SyncRound()
		check("after SyncRound")
	}
}

func TestRunUntilPredicateEvaluationCount(t *testing.T) {
	t.Parallel()
	stacks, _ := pingerStacks(2)
	net := New(stacks)
	calls := 0
	err := net.RunUntil(func() bool { calls++; return false }, 10)
	var budget *ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	// Exactly once before the first step and once after each of the 10
	// steps: 11 total, no double evaluation at budget exhaustion.
	if calls != 11 {
		t.Fatalf("predicate evaluated %d times for a 10-step budget, want 11", calls)
	}
	if net.StepCount() != budget.Steps {
		t.Fatalf("ErrBudget.Steps = %d, but %d steps executed", budget.Steps, net.StepCount())
	}
}

func BenchmarkSchedulerStep(b *testing.B) {
	stacks, _ := pingerStacks(8)
	net := New(stacks, WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkSchedulerStepChurn measures the steady-state Step hot path with
// every link live; allocs/op must report 0.
func BenchmarkSchedulerStepChurn(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := New(churnStacks(n), WithSeed(1))
			for i := 0; i < n*n; i++ {
				net.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
		})
	}
}

func BenchmarkSyncRound(b *testing.B) {
	stacks, _ := pingerStacks(8)
	net := New(stacks, WithSeed(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.SyncRound()
	}
}
