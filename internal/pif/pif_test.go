package pif

import (
	"fmt"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// ackFor is the feedback the test application at process id returns for a
// received broadcast payload: a value derived from both, so a stale or
// fabricated feedback is detectable.
func ackFor(id core.ProcID, b core.Payload) core.Payload {
	return core.Payload{Tag: "ack", Num: b.Num*1000 + int64(id)}
}

// testNet builds an n-process network of bare PIF machines whose
// application callbacks implement ackFor.
func testNet(t *testing.T, n int, opts ...sim.Option) (*sim.Network, []*PIF) {
	t.Helper()
	machines := make([]*PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		id := core.ProcID(i)
		machines[i] = New("pif", id, n, Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return ackFor(id, b)
			},
		})
		stacks[i] = core.Stack{machines[i]}
	}
	return sim.New(stacks, opts...), machines
}

func TestCleanBroadcastTwoProcesses(t *testing.T) {
	t.Parallel()
	rec := core.NewRecorder(10000)
	net, machines := testNet(t, 2, sim.WithSeed(3), sim.WithObserver(rec))
	token := core.Payload{Tag: "hello", Num: 7}
	if !machines[0].Invoke(net.Env(0), token) {
		t.Fatal("Invoke rejected on clean machine")
	}
	if err := net.RunUntil(machines[0].Done, 100000); err != nil {
		t.Fatalf("computation did not terminate: %v\n%s", err, rec.Dump())
	}

	// The paper: "our protocol does not prevent processes to generate
	// unexpected receive-brd or receive-fck events" — the handshake is
	// symmetric, so p1's flags also rise and p0 may observe events for
	// p1's (empty) B-Mes. The specification constrains only the events of
	// the requested broadcast, so filter by payload.
	var brd, fck []core.Event
	for _, e := range rec.Events() {
		switch {
		case e.Kind == core.EvRecvBrd && e.Msg.B.Equal(token):
			brd = append(brd, e)
		case e.Kind == core.EvRecvFck && e.Proc == 0:
			fck = append(fck, e)
		}
	}
	if len(brd) != 1 || brd[0].Proc != 1 {
		t.Fatalf("broadcast events = %v, want exactly one at p1 carrying %v", brd, token)
	}
	if len(fck) != 1 || !fck[0].Msg.F.Equal(ackFor(1, token)) {
		t.Fatalf("feedback events = %v, want one at p0 carrying %v", fck, ackFor(1, token))
	}
}

func TestBroadcastFiveProcesses(t *testing.T) {
	t.Parallel()
	rec := core.NewRecorder(100000)
	net, machines := testNet(t, 5, sim.WithSeed(17), sim.WithObserver(rec))
	token := core.Payload{Tag: "m", Num: 3}
	machines[2].Invoke(net.Env(2), token)
	if err := net.RunUntil(machines[2].Done, 500000); err != nil {
		t.Fatalf("computation did not terminate: %v", err)
	}
	gotBrd := make(map[core.ProcID]bool)
	gotFck := make(map[core.ProcID]core.Payload)
	for _, e := range rec.Events() {
		switch {
		case e.Kind == core.EvRecvBrd && e.Msg.B.Equal(token):
			gotBrd[e.Proc] = true
		case e.Kind == core.EvRecvFck && e.Proc == 2:
			gotFck[e.Peer] = e.Msg.F
		}
	}
	for q := core.ProcID(0); q < 5; q++ {
		if q == 2 {
			continue
		}
		if !gotBrd[q] {
			t.Errorf("process %d never received the broadcast", q)
		}
		if got, want := gotFck[q], ackFor(q, token); !got.Equal(want) {
			t.Errorf("feedback from %d = %v, want %v", q, got, want)
		}
	}
}

func TestBroadcastUnderHeavyLoss(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 3, sim.WithSeed(23), sim.WithLossRate(0.5))
	machines[0].Invoke(net.Env(0), core.Payload{Tag: "x", Num: 1})
	if err := net.RunUntil(machines[0].Done, 2_000_000); err != nil {
		t.Fatalf("computation did not survive 50%% loss: %v", err)
	}
	if net.Stats().LinkLosses == 0 {
		t.Fatal("no losses occurred; test is vacuous")
	}
}

func TestConcurrentInitiators(t *testing.T) {
	t.Parallel()
	const n = 4
	rec := core.NewRecorder(1 << 20)
	net, machines := testNet(t, n, sim.WithSeed(29), sim.WithObserver(rec))
	for i := 0; i < n; i++ {
		tok := core.Payload{Tag: "m", Num: int64(i + 1)}
		if !machines[i].Invoke(net.Env(core.ProcID(i)), tok) {
			t.Fatalf("Invoke at %d rejected", i)
		}
	}
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 2_000_000)
	if err != nil {
		t.Fatalf("concurrent computations did not all terminate: %v", err)
	}
	// Every initiator got the right feedback from every other process.
	fck := make(map[[2]core.ProcID]core.Payload)
	for _, e := range rec.Events() {
		if e.Kind == core.EvRecvFck {
			fck[[2]core.ProcID{e.Proc, e.Peer}] = e.Msg.F
		}
	}
	for i := core.ProcID(0); i < n; i++ {
		for q := core.ProcID(0); q < n; q++ {
			if i == q {
				continue
			}
			want := ackFor(q, core.Payload{Tag: "m", Num: int64(i + 1)})
			if got := fck[[2]core.ProcID{i, q}]; !got.Equal(want) {
				t.Errorf("initiator %d feedback from %d = %v, want %v", i, q, got, want)
			}
		}
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 2)
	if !machines[0].Invoke(net.Env(0), core.Payload{Tag: "a"}) {
		t.Fatal("first Invoke rejected")
	}
	if machines[0].Invoke(net.Env(0), core.Payload{Tag: "b"}) {
		t.Fatal("second Invoke accepted while Request != Done")
	}
}

func TestQuiescenceAfterDecision(t *testing.T) {
	t.Parallel()
	// "if the requests eventually stop, the system eventually contains no
	// message" (§4.1).
	net, machines := testNet(t, 3, sim.WithSeed(31))
	machines[0].Invoke(net.Env(0), core.Payload{Tag: "x"})
	if err := net.RunUntil(machines[0].Done, 500000); err != nil {
		t.Fatal(err)
	}
	// Let stragglers drain.
	for i := 0; i < 200 && !net.Quiescent(); i++ {
		net.SyncRound()
	}
	if !net.Quiescent() {
		t.Fatalf("system not quiescent after decision: %d in transit", net.InTransit())
	}
}

// corruptNet builds a network, corrupts every machine's state, and fills
// every PIF channel with garbage.
func corruptNet(t *testing.T, n int, seed uint64, opts ...sim.Option) (*sim.Network, []*PIF, *core.Recorder) {
	t.Helper()
	rec := core.NewRecorder(1 << 20)
	opts = append(opts, sim.WithSeed(seed), sim.WithObserver(rec))
	net, machines := testNet(t, n, opts...)
	r := rng.New(rng.Mix(seed, 0xDEAD))
	for _, m := range machines {
		m.Corrupt(r)
	}
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			link := net.Link(sim.LinkKey{From: core.ProcID(from), To: core.ProcID(to), Instance: "pif"})
			if r.Bool() {
				if err := link.Preload([]core.Message{machines[0].Garbage(r)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return net, machines, rec
}

// TestSnapStabilizationRandomized is the statistical heart of Theorem 2's
// verification: from many corrupted configurations, a requested broadcast
// always starts, terminates, reaches every process, and decides on
// feedback generated for this very broadcast.
func TestSnapStabilizationRandomized(t *testing.T) {
	t.Parallel()
	trials := 300
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		net, machines, rec := corruptNet(t, 3, seed)
		// Drive any in-flight corrupted computations as they are; then
		// request a fresh broadcast at p0 and watch it.
		token := core.Payload{Tag: "fresh", Num: int64(100 + trial)}
		requested := false
		var startStep int
		err := net.RunUntil(func() bool {
			if !requested {
				if machines[0].Invoke(net.Env(0), token) {
					requested = true
					startStep = net.StepCount()
				}
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d (seed %d): %v", trial, seed, err)
		}
		// Specification 1 on the event window [start, decide]:
		var sawStart bool
		brd := map[core.ProcID]bool{}
		fck := map[core.ProcID]core.Payload{}
		for _, e := range rec.Events() {
			if e.Step < startStep {
				continue
			}
			switch {
			case e.Kind == core.EvStart && e.Proc == 0 && e.Note == token.String():
				sawStart = true
			case e.Kind == core.EvRecvBrd && e.Msg.B.Equal(token):
				brd[e.Proc] = true
			case e.Kind == core.EvRecvFck && e.Proc == 0 && sawStart && !machinesDoneBefore(machines[0], e.Step):
				fck[e.Peer] = e.Msg.F
			}
		}
		if !sawStart {
			t.Fatalf("trial %d: no start event for the requested broadcast", trial)
		}
		for q := core.ProcID(1); q < 3; q++ {
			if !brd[q] {
				t.Fatalf("trial %d: process %d never received the broadcast\n%s", trial, q, rec.Dump())
			}
			want := ackFor(q, token)
			if got := fck[q]; !got.Equal(want) {
				t.Fatalf("trial %d: decision used feedback %v from %d, want %v", trial, got, q, want)
			}
		}
	}
}

// machinesDoneBefore is a placeholder hook: within one computation the
// recorder window already bounds events, so it always reports false.
func machinesDoneBefore(*PIF, int) bool { return false }

// TestProperty1ChannelFlush verifies Property 1: after p completes a
// started computation, no initial-configuration message remains in a
// channel incident to p.
func TestProperty1ChannelFlush(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 100; trial++ {
		seed := uint64(trial + 500)
		net, machines, _ := corruptNet(t, 3, seed)
		// Force garbage into every channel incident to p0 so the property
		// is exercised on every link.
		r := rng.New(seed)
		initial := make(map[string]bool)
		msgKey := func(m core.Message) string { return string(core.AppendMessage(nil, m)) }
		for q := 1; q < 3; q++ {
			for _, k := range []sim.LinkKey{
				{From: 0, To: core.ProcID(q), Instance: "pif"},
				{From: core.ProcID(q), To: 0, Instance: "pif"},
			} {
				g := machines[0].Garbage(r)
				g.B = core.Payload{Tag: "initial-garbage", Num: int64(trial*10 + q)}
				if err := net.Link(k).Preload([]core.Message{g}); err != nil {
					t.Fatal(err)
				}
				initial[msgKey(g)] = true
			}
		}
		token := core.Payload{Tag: "fresh", Num: int64(trial)}
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[0].Invoke(net.Env(0), token)
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 1; q < 3; q++ {
			for _, k := range []sim.LinkKey{
				{From: 0, To: core.ProcID(q), Instance: "pif"},
				{From: core.ProcID(q), To: 0, Instance: "pif"},
			} {
				for _, m := range net.Link(k).Contents() {
					if initial[msgKey(m)] {
						t.Fatalf("trial %d: initial message %v still in %v after completed computation", trial, m, k)
					}
				}
			}
		}
	}
}

// TestFigure1WorstCase reproduces Figure 1: the adversarially chosen
// initial configuration lets the initiator take exactly FlagTop-1 = 3
// spurious increments, and the final increment is impossible without a
// genuine post-start round trip.
func TestFigure1WorstCase(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 2)
	p, q := machines[0], machines[1]

	// Adversarial initial configuration (p = p0, q = p1):
	//   - channel q->p holds a stale message echoing flag 0,
	//   - channel p->q holds a stale message with flag 2,
	//   - q's NeigState[p] is 1 and q is mid-computation (Request = In),
	//     so q keeps emitting messages echoing its stale NeigState.
	q.Request = core.In
	q.Neig[0] = 1
	q.State[0] = 1
	kQP := sim.LinkKey{From: 1, To: 0, Instance: "pif"}
	kPQ := sim.LinkKey{From: 0, To: 1, Instance: "pif"}
	if err := net.Link(kQP).Preload([]core.Message{{Instance: "pif", Kind: Kind, State: 1, Echo: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(kPQ).Preload([]core.Message{{Instance: "pif", Kind: Kind, State: 2, Echo: 0}}); err != nil {
		t.Fatal(err)
	}

	// p starts a fresh computation.
	p.Invoke(net.Env(0), core.Payload{Tag: "fresh"})
	net.Activate(0) // A1: State[1] <- 0; A2: send (may be lost, channel full)

	// 1st spurious increment: stale q->p message echoes 0.
	net.Deliver(kQP)
	if got := p.State[1]; got != 1 {
		t.Fatalf("after stale echo 0: State = %d, want 1", got)
	}
	// q (mid-computation, NeigState 1) emits a message echoing 1.
	net.Activate(1)
	net.Deliver(kQP)
	if got := p.State[1]; got != 2 {
		t.Fatalf("after stale NeigState echo 1: State = %d, want 2", got)
	}
	// The stale p->q message with flag 2 updates q's NeigState to 2 and
	// triggers a reply echoing 2: the 3rd spurious increment.
	net.Deliver(kPQ)
	net.Deliver(kQP)
	if got := p.State[1]; got != 3 {
		t.Fatalf("after stale flag-2 message: State = %d, want 3", got)
	}

	// All garbage is now consumed: p cannot reach 4 without a genuine
	// round trip. Feed q only stale-independent activations and verify p
	// stays at 3 until its own flag-3 message reaches q.
	net.Activate(1)
	// q's NeigState[p] is 2, so its emission echoes 2 — no increment.
	for net.Deliver(kQP) {
		if p.State[1] > 3 {
			t.Fatalf("State reached %d without a post-start round trip", p.State[1])
		}
	}
	// Genuine round trip: p transmits flag 3, q echoes it.
	net.Activate(0)
	net.Deliver(kPQ)
	net.Deliver(kQP)
	if got := p.State[1]; got != 4 {
		t.Fatalf("after genuine round trip: State = %d, want 4", got)
	}
}

// TestFlagDomainAblationUnsound shows why the domain {0..4} is necessary:
// with FlagTop = 3 the Figure 1 configuration drives the initiator to a
// decision built entirely from garbage — the 3 spurious increments
// suffice, and the "feedback" it decides on was never sent by anyone.
func TestFlagDomainAblationUnsound(t *testing.T) {
	t.Parallel()
	n := 2
	machines := make([]*PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		id := core.ProcID(i)
		machines[i] = New("pif", id, n, Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return ackFor(id, b)
			},
		}, WithFlagTop(3))
		stacks[i] = core.Stack{machines[i]}
	}
	net := sim.New(stacks)
	p, q := machines[0], machines[1]
	q.Request = core.In
	q.Neig[0] = 1
	q.State[0] = 1
	q.FMes[0] = core.Payload{Tag: "stale-feedback"}
	kQP := sim.LinkKey{From: 1, To: 0, Instance: "pif"}
	kPQ := sim.LinkKey{From: 0, To: 1, Instance: "pif"}
	if err := net.Link(kQP).Preload([]core.Message{{Instance: "pif", Kind: Kind, State: 1, Echo: 0, F: core.Payload{Tag: "stale-feedback"}}}); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(kPQ).Preload([]core.Message{{Instance: "pif", Kind: Kind, State: 2, Echo: 0}}); err != nil {
		t.Fatal(err)
	}
	decided := false
	var decidedOn core.Payload
	p.cb.OnFeedback = func(_ core.Env, _ core.ProcID, f core.Payload) { decided, decidedOn = true, f }

	token := core.Payload{Tag: "fresh", Num: 7}
	p.Invoke(net.Env(0), token)
	net.Activate(0)
	net.Deliver(kQP) // spurious increment 1 (echo 0)
	net.Activate(1)
	net.Deliver(kQP) // spurious increment 2 (echo 1)
	net.Deliver(kPQ)
	net.Deliver(kQP) // spurious increment 3 -> State = 3 = FlagTop: decision!

	if p.State[1] != 3 {
		t.Fatalf("ablated protocol State = %d, want 3 (spurious completion)", p.State[1])
	}
	if !decided {
		t.Fatal("ablated protocol did not decide on garbage; ablation vacuous")
	}
	// The genuine feedback for this broadcast would be ackFor(1, token);
	// the ablated protocol decided on something that was never produced
	// for it — the unsound decision the flag domain {0..4} rules out.
	if decidedOn.Equal(ackFor(1, token)) {
		t.Fatalf("decision %v matches the genuine feedback; ablation vacuous", decidedOn)
	}
}

// TestStateMonotoneDuringComputation: within one started computation the
// per-neighbour flag never decreases (it is reset only by a new start).
func TestStateMonotoneDuringComputation(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 50; trial++ {
		net, machines, _ := corruptNet(t, 3, uint64(trial+900))
		token := core.Payload{Tag: "fresh"}
		requested, started := false, false
		last := make([]uint8, 3)
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[0].Invoke(net.Env(0), token)
				return false
			}
			if !started {
				// Monotonicity holds from the start action A1 (which
				// resets the flags to 0) to the decision.
				if machines[0].Request == core.In {
					started = true
					copy(last, machines[0].State)
				}
				return false
			}
			for q := 1; q < 3; q++ {
				if machines[0].State[q] < last[q] {
					t.Fatalf("trial %d: State[%d] decreased %d -> %d mid-computation",
						trial, q, last[q], machines[0].State[q])
				}
				last[q] = machines[0].State[q]
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAppendStateDistinguishesConfigs(t *testing.T) {
	t.Parallel()
	a := New("pif", 0, 3, Callbacks{})
	b := New("pif", 0, 3, Callbacks{})
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines encode differently")
	}
	b.State[1] = 2
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("different State encodes identically")
	}
	b.State[1] = 0
	b.Neig[2] = 1
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("different NeigState encodes identically")
	}
}

func TestCorruptStaysInDomain(t *testing.T) {
	t.Parallel()
	r := rng.New(123)
	for trial := 0; trial < 200; trial++ {
		m := New("pif", 1, 4, Callbacks{})
		m.Corrupt(r)
		if m.Request > core.Done {
			t.Fatalf("corrupted Request %d out of domain", m.Request)
		}
		for q := 0; q < 4; q++ {
			if q == 1 {
				continue
			}
			if m.State[q] > m.FlagTop() || m.Neig[q] > m.FlagTop() {
				t.Fatalf("corrupted flags out of domain: State=%d Neig=%d", m.State[q], m.Neig[q])
			}
		}
	}
}

func TestCapacityBoundOptionSizesFlagDomain(t *testing.T) {
	t.Parallel()
	for c := 1; c <= 4; c++ {
		m := New("pif", 0, 2, Callbacks{}, WithCapacityBound(c))
		if got, want := m.FlagTop(), uint8(2*c+2); got != want {
			t.Errorf("capacity %d: FlagTop = %d, want %d", c, got, want)
		}
	}
}

func TestCapacityTwoEndToEnd(t *testing.T) {
	t.Parallel()
	// Capacity-2 channels with the matching flag domain {0..6}: the
	// protocol still satisfies its specification from corrupted starts.
	const n, c = 3, 2
	for trial := 0; trial < 50; trial++ {
		machines := make([]*PIF, n)
		stacks := make([]core.Stack, n)
		for i := 0; i < n; i++ {
			id := core.ProcID(i)
			machines[i] = New("pif", id, n, Callbacks{
				OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
					return ackFor(id, b)
				},
			}, WithCapacityBound(c))
			stacks[i] = core.Stack{machines[i]}
		}
		rec := core.NewRecorder(1 << 18)
		net := sim.New(stacks, sim.WithSeed(uint64(trial+1)), sim.WithCapacity(c), sim.WithObserver(rec))
		r := rng.New(uint64(trial + 77))
		for _, m := range machines {
			m.Corrupt(r)
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				k := sim.LinkKey{From: core.ProcID(from), To: core.ProcID(to), Instance: "pif"}
				garbage := []core.Message{
					machines[0].Garbage(r),
					machines[0].Garbage(r),
				}
				if err := net.Link(k).Preload(garbage); err != nil {
					t.Fatal(err)
				}
			}
		}
		token := core.Payload{Tag: "fresh", Num: int64(trial)}
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[0].Invoke(net.Env(0), token)
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want1, want2 := ackFor(1, token), ackFor(2, token)
		got := map[core.ProcID]core.Payload{}
		for _, e := range rec.Events() {
			if e.Kind == core.EvRecvFck && e.Proc == 0 {
				got[e.Peer] = e.Msg.F
			}
		}
		if !got[1].Equal(want1) || !got[2].Equal(want2) {
			t.Fatalf("trial %d: feedback = %v, want %v / %v", trial, got, want1, want2)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("n=1", func() { New("pif", 0, 1, Callbacks{}) })
	expectPanic("self out of range", func() { New("pif", 5, 3, Callbacks{}) })
	expectPanic("capacity 0", func() { New("pif", 0, 2, Callbacks{}, WithCapacityBound(0)) })
	expectPanic("flag top 0", func() { New("pif", 0, 2, Callbacks{}, WithFlagTop(0)) })
}

func TestGarbageMessageInDomain(t *testing.T) {
	t.Parallel()
	r := rng.New(55)
	p := New("pif", 0, 2, Callbacks{})
	for i := 0; i < 500; i++ {
		m := p.Garbage(r)
		if m.State > 4 || m.Echo > 4 {
			t.Fatalf("garbage message out of domain: %v", m)
		}
		if m.Instance != "pif" || m.Kind != Kind {
			t.Fatalf("garbage message misrouted: %v", m)
		}
	}
}

func TestDeliverIgnoresForeignKindsAndSelf(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 2)
	before := string(machines[0].AppendState(nil))
	machines[0].Deliver(net.Env(0), 1, core.Message{Instance: "pif", Kind: "OTHER"})
	machines[0].Deliver(net.Env(0), 0, core.Message{Instance: "pif", Kind: Kind}) // from self: impossible, ignored
	machines[0].Deliver(net.Env(0), 9, core.Message{Instance: "pif", Kind: Kind}) // out of range
	if got := string(machines[0].AppendState(nil)); got != before {
		t.Fatal("ill-formed deliveries mutated machine state")
	}
}

func TestRepeatedComputations(t *testing.T) {
	t.Parallel()
	net, machines := testNet(t, 3, sim.WithSeed(41))
	for round := 0; round < 10; round++ {
		token := core.Payload{Tag: "r", Num: int64(round)}
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[0].Invoke(net.Env(0), token)
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}, 1_000_000)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func fmtStates(ms []*PIF) string {
	s := ""
	for _, m := range ms {
		s += fmt.Sprintf("p%d{%v S%v N%v} ", m.self, m.Request, m.State, m.Neig)
	}
	return s
}

func TestStringHelpersCompile(t *testing.T) {
	t.Parallel()
	_, machines := testNet(t, 2)
	if fmtStates(machines) == "" {
		t.Fatal("empty debug string")
	}
}

// TestGarbageBlobStreamInvariance pins the determinism contract of the
// typed-payload change: drawing blob-free garbage (maxBlob = 0) consumes
// EXACTLY the random stream of the pre-blob GarbagePayload, so legacy
// corrupted configurations — and with them every deterministic-sim
// experiment table — replay byte-identically.
func TestGarbageBlobStreamInvariance(t *testing.T) {
	t.Parallel()
	r1, r2 := rng.New(77), rng.New(77)
	for i := 0; i < 100; i++ {
		a := GarbagePayload(r1)
		b := GarbagePayloadBlob(r2, 0)
		if !a.Equal(b) {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("maxBlob=0 consumed extra randomness: legacy streams shifted")
	}

	// And with a bound, bodies are actually drawn, within the bound.
	r := rng.New(3)
	sawBody := false
	for i := 0; i < 100; i++ {
		p := GarbagePayloadBlob(r, 32)
		if len(p.Blob) > 32 {
			t.Fatalf("garbage body of %d bytes exceeds bound 32", len(p.Blob))
		}
		if len(p.Blob) > 0 {
			sawBody = true
		}
	}
	if !sawBody {
		t.Fatal("maxBlob=32 never drew a body in 100 payloads")
	}
}
