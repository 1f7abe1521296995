package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/spec"
	"github.com/snapstab/snapstab/internal/wire"
)

// The tests in this file run whole clusters on the in-memory link, as
// snapstab.Runtime() builds them: activation loops and the step timer
// run, so what they pin holds under true concurrency. eager_test.go
// pins the send rule and the wake-up Await exactly, on nodes it drives
// by hand; the tests here hold the same contract on running clusters,
// where a run the step timer took part in (Retransmits moved) counts for
// nothing and is repeated.

// start runs stacks on the in-memory link at the paper's c = 1, the
// bound pifStacksAt(n, 1) builds its machines for (later options
// override it), and registers the teardown: no window ever exceeded its
// bound, then Close.
func start(t *testing.T, stacks []core.Stack, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(Memory(), stacks, append([]Option{WithCapacity(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	t.Cleanup(func() {
		if err := core.CheckWindows(c.TransportStats()); err != nil {
			t.Error(err)
		}
	})
	return c
}

// lossy is the plan the façade's WithLossRate(p) installs.
func lossy(p float64) Option {
	return WithFaults(&core.FaultPlan{Seed: 1, Default: core.LinkFaults{DropRate: p}})
}

// await runs one broadcast of token at process 0 of c and waits for its
// decision.
func await(t *testing.T, c *Cluster, m *pif.PIF, token core.Payload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Await(ctx, 0, broadcasting(m, token)); err != nil {
		t.Fatalf("broadcast %v: %v", token, err)
	}
}

// decided reports whether process p of c decided a broadcast of token.
func decided(c *Cluster, p core.ProcID, m *pif.PIF, token core.Payload) (d bool) {
	c.Do(p, func(core.Env) { d = m.Done() && m.BMes.Equal(token) })
	return d
}

// untimed runs broadcast until one run ends with the step timer having
// repeated nothing, and returns the sends that run took.
func untimed(t *testing.T, broadcast func() (sends, retransmits int64)) int64 {
	t.Helper()
	for try := 0; try < 50; try++ {
		if sends, retransmits := broadcast(); retransmits == 0 {
			return sends
		}
	}
	t.Fatal("the step timer retransmitted in every one of 50 broadcasts")
	return 0
}

// TestWarmBroadcastIsSixteenSends: every flag leaves in the atomic
// section that produced it and Await wakes in the one that decided, so a
// warm n = 3 broadcast the timer took no part in is exactly 4(c+1)(n-1)
// sends at c = 1 — the gated runtime-serial/frames_per_req as a unit test.
func TestWarmBroadcastIsSixteenSends(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(3, 1)
	c := start(t, stacks)
	await(t, c, machines[0], core.Payload{Tag: "cold"})
	sends := untimed(t, func() (int64, int64) {
		before, r0 := totals(c.nodes)
		await(t, c, machines[0], core.Payload{Tag: "warm"})
		after, r1 := totals(c.nodes)
		return after - before, r1 - r0
	})
	if sends != 16 {
		t.Fatalf("warm broadcast took %d sends, want 16", sends)
	}
}

// TestDuplicateEchoesCostNothing: every flag of every process starts at
// the top (the state a finished broadcast leaves), and process 1's
// echoes reach the initiator twice, nine times in ten. A copy is lost at
// the full mailbox or makes the initiator step once more; what that Step
// says was said already.
func TestDuplicateEchoesCostNothing(t *testing.T) {
	t.Parallel()
	var dups int64
	sends := untimed(t, func() (int64, int64) {
		stacks, machines := pifStacksAt(3, 1)
		for _, m := range machines {
			for _, q := range m.Peers() {
				m.State[q] = m.FlagTop()
			}
		}
		plan := &core.FaultPlan{Seed: 3, Links: map[core.LinkSel]core.LinkFaults{{From: 1, To: 0}: {DupRate: 0.9}}}
		c := start(t, stacks, WithFaults(plan))
		await(t, c, machines[0], core.Payload{Tag: "hello"})
		dups = c.FaultStats().Duplicates
		return totals(c.nodes)
	})
	if sends != 16 {
		t.Fatalf("broadcast under duplicated echoes took %d sends, want 16", sends)
	}
	if dups == 0 {
		t.Fatal("the plan duplicated nothing")
	}
}

// TestAwaitTrueAtOnceRunning: a condition that holds on its first
// evaluation returns from that atomic section and is never evaluated
// again, by any of the sections a running cluster goes on to take.
func TestAwaitTrueAtOnceRunning(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(2, 1)
	c := start(t, stacks)
	evals := 0
	if err := c.Await(context.Background(), 0, func(core.Env) bool { evals++; return true }); err != nil {
		t.Fatal(err)
	}
	await(t, c, machines[0], core.Payload{Tag: "after"}) // atomic sections at 0 that would re-evaluate it
	c.Do(0, func(core.Env) {
		if evals != 1 {
			t.Fatalf("%d evaluations, want 1", evals)
		}
	})
}

// TestAwaitEndsUnregisteredRunning: a wait on a running cluster ended by
// its context or by Close returns the matching error, and its condition
// is not evaluated again by the atomic sections that follow.
func TestAwaitEndsUnregisteredRunning(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(2, 1)
	c := start(t, stacks)
	ctx, cancel := context.WithCancel(context.Background())
	for _, tc := range []struct {
		name string
		ctx  context.Context
		end  func()
		want error
	}{
		{"ctx", ctx, cancel, context.Canceled},
		{"Close", context.Background(), func() { c.Close() }, core.ErrClosed},
	} {
		evals := 0 // under process 0's action mutex
		evaluated := func() (k int) {
			c.Do(0, func(core.Env) { k = evals })
			return k
		}
		errc := make(chan error, 1)
		go func() { errc <- c.Await(tc.ctx, 0, func(core.Env) bool { evals++; return false }) }()
		if !waitFor(10*time.Second, func() bool { return evaluated() >= 1 }) {
			t.Fatalf("%s: Await never evaluated its condition", tc.name)
		}
		tc.end()
		if err := <-errc; !errors.Is(err, tc.want) {
			t.Fatalf("%s: Await returned %v, want %v", tc.name, err, tc.want)
		}
		before := evaluated()
		if tc.want == context.Canceled {
			await(t, c, machines[0], core.Payload{Tag: "after"})
		}
		c.Do(0, func(env core.Env) { machines[0].Step(env) })
		if after := evaluated(); after != before {
			t.Fatalf("%s: condition evaluated %d more times after its wait ended", tc.name, after-before)
		}
	}
}

// TestConcurrentAwaitsSerializeUnderLoss: two requests awaited at one
// process take turns even while lost messages keep the step timer
// retransmitting — the second's Invoke is refused until the first
// decided — so their computations never interleave.
func TestConcurrentAwaitsSerializeUnderLoss(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var order []core.EventKind
	stacks, machines := pifStacksAt(3, 1)
	c := start(t, stacks, lossy(0.2), WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Proc == 0 && (ev.Kind == core.EvStart || ev.Kind == core.EvDecide) {
			mu.Lock()
			order = append(order, ev.Kind)
			mu.Unlock()
		}
	})))
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(token core.Payload) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := c.Await(ctx, 0, broadcasting(machines[0], token)); err != nil {
				t.Error(err)
			}
		}(core.Payload{Tag: "turn", Num: i})
	}
	wg.Wait()
	if c.FaultStats().Drops == 0 {
		t.Fatal("the plan dropped nothing")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []core.EventKind{core.EvStart, core.EvDecide, core.EvStart, core.EvDecide}
	if len(order) != len(want) {
		t.Fatalf("process 0 saw %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("process 0 saw %v, want %v", order, want)
		}
	}
}

func TestPIFOnConcurrentSubstrate(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(4, 1)
	c := start(t, stacks)

	token := core.Payload{Tag: "m", Num: 9}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	if !waitFor(10*time.Second, func() bool { return decided(c, 0, machines[0], token) }) {
		t.Fatal("broadcast did not complete on the concurrent substrate")
	}
}

// TestUnencodableSendIsRefused: a message the wire cannot encode is lost
// at the sender with the wire's note and its window slot back, on the
// in-memory link exactly as on the sockets — the framer checks every
// message, whatever link carries the frame.
func TestUnencodableSendIsRefused(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var notes []string
	var delivered atomic.Int64
	stacks := []core.Stack{{&countSink{inst: "rec", delivered: &delivered}}, {&countSink{inst: "rec", delivered: &delivered}}}
	c := start(t, stacks, WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Kind == core.EvSendLost {
			mu.Lock()
			notes = append(notes, ev.Note)
			mu.Unlock()
		}
	})))
	c.Do(0, func(env core.Env) {
		env.Send(1, core.Message{Instance: "rec", Kind: strings.Repeat("k", wire.MaxStringLen+1)})
	})
	s := c.TransportStats()[0]
	mu.Lock()
	defer mu.Unlock()
	if s.Sends != 0 || s.SendDrops != 1 || len(notes) != 1 || !strings.HasPrefix(notes[0], "wire: ") {
		t.Fatalf("a 256-byte Kind: Sends = %d, SendDrops = %d, EvSendLost notes %q; want 0, 1 and the wire's refusal",
			s.Sends, s.SendDrops, notes)
	}
	if l := s.Links[0]; l.InFlight != 0 || l.Dropped != 1 {
		t.Fatalf("the refused message holds %d window slots and counts %d drops on its link; want 0 and 1", l.InFlight, l.Dropped)
	}
}

func TestPIFUnderInjectedLoss(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(3, 1)
	c := start(t, stacks, lossy(0.3))
	c.Do(0, func(env core.Env) { machines[0].Invoke(env, core.Payload{Tag: "m"}) })
	if !waitFor(20*time.Second, func() bool {
		var d bool
		c.Do(0, func(core.Env) { d = machines[0].Done() })
		return d
	}) {
		t.Fatal("broadcast did not survive injected loss")
	}
	if c.FaultStats().Drops == 0 {
		t.Fatal("no messages dropped; loss injection inert")
	}
}

func TestPIFFromCorruptedStateConcurrent(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(3, 1)
	r := rng.New(99)
	for _, m := range machines {
		m.Corrupt(r)
	}
	checker := &spec.PIFChecker{N: 3, Initiator: 0, Instance: "pif",
		ExpectFck: func(q core.ProcID, b core.Payload) core.Payload {
			return core.Payload{Tag: "ack", Num: b.Num*100 + int64(q)}
		}}
	guard := &lockedObserver{inner: checker}
	c := start(t, stacks, WithObserver(guard))

	token := core.Payload{Tag: "fresh", Num: 5}
	invoked := waitFor(10*time.Second, func() bool {
		var ok bool
		c.Do(0, func(env core.Env) {
			// Invoke emits an event through the observer, so the guard
			// must not be held around it; the process mutex (held by Do)
			// already keeps the start action from racing ahead of Arm.
			ok = machines[0].Invoke(env, token)
			if ok {
				guard.obsMu.Lock()
				checker.Arm(token)
				guard.obsMu.Unlock()
			}
		})
		return ok
	})
	if !invoked {
		t.Fatal("corrupted computation never terminated to accept the request")
	}
	if !waitFor(20*time.Second, func() bool {
		guard.obsMu.Lock()
		defer guard.obsMu.Unlock()
		return checker.Decided()
	}) {
		t.Fatal("requested computation did not decide")
	}
	guard.obsMu.Lock()
	defer guard.obsMu.Unlock()
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("specification violated on concurrent substrate: %v", v)
	}
}

// lockedObserver serializes observer callbacks from multiple goroutines.
// Its mutex is taken under a node's action mutex, as every observer
// callback is, so it is not named mu: snapvet ranks the engine's own
// mutexes by name.
type lockedObserver struct {
	obsMu sync.Mutex
	inner core.Observer
}

func (l *lockedObserver) OnEvent(e core.Event) {
	l.obsMu.Lock()
	defer l.obsMu.Unlock()
	l.inner.OnEvent(e)
}

func TestIDLOnConcurrentSubstrate(t *testing.T) {
	t.Parallel()
	ids := []int64{42, 7, 19}
	stacks := make([]core.Stack, 3)
	machines := make([]*idl.IDL, 3)
	for i := range stacks {
		machines[i] = idl.New("idl", core.ProcID(i), 3, ids[i])
		stacks[i] = machines[i].Machines()
	}
	c := start(t, stacks)
	c.Do(2, func(env core.Env) { machines[2].Invoke(env) })
	if !waitFor(10*time.Second, func() bool {
		var d bool
		c.Do(2, func(core.Env) { d = machines[2].Done() })
		return d
	}) {
		t.Fatal("IDs-Learning did not complete")
	}
	c.Do(2, func(core.Env) {
		if machines[2].MinID != 7 || machines[2].IDTab[0] != 42 || machines[2].IDTab[1] != 7 {
			t.Errorf("learned MinID=%d IDTab=%v", machines[2].MinID, machines[2].IDTab)
		}
	})
}

func TestMutexOnConcurrentSubstrate(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks := make([]core.Stack, n)
	machines := make([]*mutex.ME, n)
	for i := range stacks {
		machines[i] = mutex.New("me", core.ProcID(i), n, int64(i+1))
		stacks[i] = machines[i].Machines()
	}
	checker := spec.NewMutexChecker()
	guard := &lockedObserver{inner: checker}
	c := start(t, stacks, WithObserver(guard))

	for i := 0; i < n; i++ {
		i := core.ProcID(i)
		c.Do(i, func(env core.Env) { machines[i].Invoke(env) })
	}
	if !waitFor(60*time.Second, func() bool {
		served := true
		for i := 0; i < n; i++ {
			i := core.ProcID(i)
			c.Do(i, func(core.Env) {
				if machines[i].Requested() {
					served = false
				}
			})
		}
		return served
	}) {
		t.Fatal("not every request was served on the concurrent substrate")
	}
	guard.obsMu.Lock()
	defer guard.obsMu.Unlock()
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("mutual exclusion violated: %v", v)
	}
	if checker.Entries() != n {
		t.Fatalf("served entries = %d, want %d", checker.Entries(), n)
	}
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacksAt(2, 1)
	c := start(t, stacks)
	c.Close()
	c.Close() // second call must not panic or hang
}

// TestStartStopConcurrent pins the liveness and memory safety of the
// start and stop paths under -race: a cluster whose loops have barely
// launched, closed from many goroutines at once, must neither panic nor
// hang, and every Close returns only once the loops are gone.
func TestStartStopConcurrent(t *testing.T) {
	t.Parallel()
	for i := 0; i < 20; i++ {
		stacks, _ := pifStacksAt(3, 1)
		c := start(t, stacks)
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Close()
			}()
		}
		wg.Wait()
	}
}

// TestStartTwicePanics pins the single-Start contract: a cluster is
// born started, so the second Start of one of its kind of node is a bug
// the engine refuses.
func TestStartTwicePanics(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacksAt(2, 1)
	n, err := NewNode(Memory(), 0, stacks[0], "", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	n.Start()
}

// TestCapacityDoesNotBacklog pins the drain-to-empty behavior: with
// capacity c > 1, a burst of c messages on one link is delivered in full
// (the old one-message-per-link-per-tick drain backlogged them).
func TestCapacityDoesNotBacklog(t *testing.T) {
	t.Parallel()
	const capacity = 8
	var delivered atomic.Int64
	// Two sinks: nothing is sent but the burst.
	stacks := []core.Stack{
		{&countSink{inst: "flood", delivered: &delivered}},
		{&countSink{inst: "flood", delivered: &delivered}},
	}
	c := start(t, stacks, WithCapacity(capacity))
	c.Do(0, func(env core.Env) {
		for i := 0; i < capacity; i++ {
			env.Send(1, core.Message{Instance: "flood", Kind: "burst"})
		}
	})
	if !waitFor(10*time.Second, func() bool { return delivered.Load() >= capacity }) {
		t.Fatalf("delivered %d of %d burst messages", delivered.Load(), capacity)
	}
	if d := c.TransportStats()[0].SendDrops; d != 0 {
		t.Fatalf("%d messages dropped inside a burst within capacity", d)
	}
}

// countSink counts deliveries and never sends.
type countSink struct {
	inst      string
	delivered *atomic.Int64
}

func (s *countSink) Instance() string   { return s.inst }
func (s *countSink) Step(core.Env) bool { return false }
func (s *countSink) Deliver(_ core.Env, _ core.ProcID, _ core.Message) {
	s.delivered.Add(1)
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacksAt(2, 1)
	for name, build := range map[string]func() (*Cluster, error){
		"one process": func() (*Cluster, error) { return NewCluster(Memory(), stacks[:1]) },
		"capacity 0":  func() (*Cluster, error) { return NewCluster(Memory(), stacks, WithCapacity(0)) },
		"loss 1":      func() (*Cluster, error) { return NewCluster(Memory(), stacks, lossy(1)) },
	} {
		if c, err := build(); err == nil {
			c.Close()
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPIFUnderFaultPlan(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(3, 1)
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
	c := start(t, stacks, WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 4}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	if !waitFor(30*time.Second, func() bool { return decided(c, 0, machines[0], token) }) {
		t.Fatalf("broadcast did not survive the fault plan (faults: %+v)", c.FaultStats())
	}
	if c.FaultStats().Total() == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

func TestCrashRestartWindowOnRuntime(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(3, 1)
	plan := &core.FaultPlan{
		Seed:    5,
		Unit:    time.Millisecond,
		Crashes: []core.CrashWindow{{Proc: 1, From: 0, Until: 250}},
	}
	c := start(t, stacks, WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 9}
	c.Do(0, func(env core.Env) { machines[0].Invoke(env, token) })
	// The PIF decision needs feedback from process 1, so completion
	// implies the crash window ended and the warm restart worked.
	if !waitFor(30*time.Second, func() bool { return decided(c, 0, machines[0], token) }) {
		t.Fatalf("broadcast did not complete after the crash window (faults: %+v)", c.FaultStats())
	}
	if c.FaultStats().CrashDrops == 0 {
		t.Fatal("no arrivals were consumed during the crash window")
	}
}

func TestPartitionWindowOnRuntime(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacksAt(4, 1)
	plan := &core.FaultPlan{
		Seed:       5,
		Unit:       time.Millisecond,
		Partitions: []core.PartitionWindow{{From: 0, Until: 250, GroupA: []core.ProcID{0}}},
	}
	c := start(t, stacks, WithFaults(plan))

	token := core.Payload{Tag: "m", Num: 2}
	c.Do(0, func(env core.Env) { machines[0].Invoke(env, token) })
	if !waitFor(30*time.Second, func() bool { return decided(c, 0, machines[0], token) }) {
		t.Fatalf("broadcast did not complete after the heal (faults: %+v)", c.FaultStats())
	}
	if c.FaultStats().PartitionDrops == 0 {
		t.Fatal("no messages were dropped by the partition")
	}
}

// TestEngineAwait completes a corrupted broadcast through the substrate
// interface alone.
func TestEngineAwait(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks := make([]core.Stack, n)
	machines := make([]*pif.PIF, n)
	for i := 0; i < n; i++ {
		machines[i] = pif.New("pif", core.ProcID(i), n, pif.Callbacks{})
		stacks[i] = core.Stack{machines[i]}
	}
	var sub core.Substrate = start(t, stacks)
	if sub.N() != n {
		t.Fatalf("N = %d, want %d", sub.N(), n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := sub.Await(ctx, 0, broadcasting(machines[0], core.Payload{Tag: "t", Num: 9})); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAwaitStopped verifies Await unblocks with core.ErrClosed when
// the engine is closed underneath it, and that Close is idempotent.
func TestEngineAwaitStopped(t *testing.T) {
	t.Parallel()
	stacks := make([]core.Stack, 2)
	for i := range stacks {
		stacks[i] = core.Stack{pif.New("pif", core.ProcID(i), 2, pif.Callbacks{})}
	}
	c := start(t, stacks)
	done := make(chan error, 1)
	go func() {
		done <- c.Await(context.Background(), 0, func(core.Env) bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrClosed) {
			t.Fatalf("got %v, want core.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await never unblocked after Close")
	}
}

// TestTransportStatsCountEvents pins the per-process counters to the
// event stream: one broadcast from a clean start plus one send into a
// full window, and once the cluster is quiet every process's Sends,
// SendDrops and Recvs equal the EvSend, EvSendLost and EvDeliver events
// an observer counted at it, and its Links[] add up to them.
func TestTransportStatsCountEvents(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks, machines := pifStacksAt(n, 1)
	var sends, sendLost, delivers [n]atomic.Int64
	c := start(t, stacks, WithObserver(core.ObserverFunc(func(ev core.Event) {
		switch ev.Kind {
		case core.EvSend:
			sends[ev.Proc].Add(1)
		case core.EvSendLost:
			sendLost[ev.Proc].Add(1)
		case core.EvDeliver:
			delivers[ev.Proc].Add(1)
		}
	})))
	token := core.Payload{Tag: "count", Num: 3}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
		machines[0].Step(env)                                 // the first flag takes the one slot toward 1
		env.Send(1, core.Message{Instance: "pif", Kind: "x"}) // lost at the sender, always
	})
	counted := func() bool {
		for p, s := range c.TransportStats() {
			var sent, received int64
			for _, l := range s.Links {
				sent += l.Sent
				received += l.Received
			}
			if s.Sends != sends[p].Load() || s.SendDrops != sendLost[p].Load() || s.Recvs != delivers[p].Load() ||
				sent != s.Sends || received != s.Recvs {
				return false
			}
		}
		return true
	}
	if !waitFor(20*time.Second, func() bool { return decided(c, 0, machines[0], token) && counted() }) {
		t.Fatalf("broadcast incomplete or counters apart from the events: %+v", c.TransportStats())
	}
	s := c.TransportStats()[0]
	if s.Sends == 0 || s.SendDrops == 0 {
		t.Fatalf("counters inert: %d sends, %d send drops", s.Sends, s.SendDrops)
	}
}

// TestRuntimeSoak is the scaled-up confidence run for the engine in
// memory: n = 8 and 16, c = 2, corrupted initial states, loss injected
// through the drop plan, and rotating initiators. Skipped under -short.
func TestRuntimeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	t.Parallel()
	for _, tc := range []struct {
		n    int
		loss float64
	}{
		{n: 8, loss: 0},
		{n: 8, loss: 0.2},
		{n: 16, loss: 0},
		{n: 16, loss: 0.1},
	} {
		t.Run(fmt.Sprintf("n=%d/loss=%v", tc.n, tc.loss), func(t *testing.T) {
			t.Parallel()
			stacks, machines := pifStacksAt(tc.n, 2)
			r := rng.New(uint64(tc.n)*31 + uint64(tc.loss*100))
			for _, m := range machines {
				m.Corrupt(r)
			}
			opts := []Option{WithCapacity(2)}
			if tc.loss > 0 {
				opts = append(opts, lossy(tc.loss))
			}
			c := start(t, stacks, opts...)

			for round := 0; round < 5; round++ {
				p := core.ProcID(round % tc.n)
				token := core.Payload{Tag: "soak", Num: int64(round*100 + tc.n)}
				invoked := waitFor(30*time.Second, func() bool {
					var ok bool
					c.Do(p, func(env core.Env) { ok = machines[p].Invoke(env, token) })
					return ok
				})
				if !invoked {
					t.Fatalf("round %d: initiator %d never accepted the request", round, p)
				}
				if !waitFor(60*time.Second, func() bool { return decided(c, p, machines[p], token) }) {
					t.Fatalf("round %d: broadcast from %d did not decide", round, p)
				}
			}
		})
	}
}
