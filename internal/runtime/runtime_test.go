package runtime

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/spec"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// start runs stacks on the in-memory link at the paper's c = 1, the bound
// pifStacks builds its machines for (later options override it), and
// registers the teardown: no window ever exceeded its bound, then Close.
func start(t *testing.T, stacks []core.Stack, opts ...engine.Option) *engine.Cluster {
	t.Helper()
	c, err := NewCluster(stacks, append([]engine.Option{engine.WithCapacity(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	linktest.CheckWindows(t, c)
	return c
}

// lossy is the plan the façade's WithLossRate(p) installs.
func lossy(p float64) engine.Option {
	return engine.WithFaults(&core.FaultPlan{Seed: 1, Default: core.LinkFaults{DropRate: p}})
}

// waitFor polls cond (under no lock; use Do inside cond if state access
// is needed) until it holds or the deadline passes.
var waitFor = linktest.WaitFor

func pifStacks(n int) ([]core.Stack, []*pif.PIF) { return pifStacksAt(n, 1) }

// pifStacksAt builds the machines for the capacity bound c.
func pifStacksAt(n, c int) ([]core.Stack, []*pif.PIF) {
	stacks := make([]core.Stack, n)
	machines := make([]*pif.PIF, n)
	for i := 0; i < n; i++ {
		id := core.ProcID(i)
		machines[i] = pif.New("pif", id, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*100 + int64(id)}
			},
		}, pif.WithCapacityBound(c))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

func TestPIFOnConcurrentSubstrate(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(4)
	e := start(t, stacks)

	token := core.Payload{Tag: "m", Num: 9}
	e.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	done := waitFor(t, 10*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d
	})
	if !done {
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
	stacks := []core.Stack{{&linktest.Recorder{Inst: "rec"}}, {&linktest.Recorder{Inst: "rec"}}}
	c := start(t, stacks, engine.WithObserver(core.ObserverFunc(func(ev core.Event) {
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
	stacks, machines := pifStacks(3)
	e := start(t, stacks, lossy(0.3))
	e.Do(0, func(env core.Env) { machines[0].Invoke(env, core.Payload{Tag: "m"}) })
	if !waitFor(t, 20*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() })
		return d
	}) {
		t.Fatal("broadcast did not survive injected loss")
	}
	if e.FaultStats().Drops == 0 {
		t.Fatal("no messages dropped; loss injection inert")
	}
}

func TestPIFFromCorruptedStateConcurrent(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	r := rng.New(99)
	for _, m := range machines {
		m.Corrupt(r)
	}
	checker := &spec.PIFChecker{N: 3, Initiator: 0, Instance: "pif",
		ExpectFck: func(q core.ProcID, b core.Payload) core.Payload {
			return core.Payload{Tag: "ack", Num: b.Num*100 + int64(q)}
		}}
	guard := &lockedObserver{inner: checker}
	e := start(t, stacks, engine.WithObserver(guard))

	token := core.Payload{Tag: "fresh", Num: 5}
	invoked := waitFor(t, 10*time.Second, func() bool {
		var ok bool
		e.Do(0, func(env core.Env) {
			// Invoke emits an event through the observer, so the guard
			// must not be held around it; the process mutex (held by Do)
			// already keeps the start action from racing ahead of Arm.
			ok = machines[0].Invoke(env, token)
			if ok {
				guard.mu.Lock()
				checker.Arm(token)
				guard.mu.Unlock()
			}
		})
		return ok
	})
	if !invoked {
		t.Fatal("corrupted computation never terminated to accept the request")
	}
	if !waitFor(t, 20*time.Second, func() bool {
		guard.mu.Lock()
		defer guard.mu.Unlock()
		return checker.Decided()
	}) {
		t.Fatal("requested computation did not decide")
	}
	guard.mu.Lock()
	defer guard.mu.Unlock()
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("specification violated on concurrent substrate: %v", v)
	}
}

// lockedObserver serializes observer callbacks from multiple goroutines.
type lockedObserver struct {
	mu    sync.Mutex
	inner core.Observer
}

func (l *lockedObserver) OnEvent(e core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	e := start(t, stacks)
	e.Do(2, func(env core.Env) { machines[2].Invoke(env) })
	if !waitFor(t, 10*time.Second, func() bool {
		var d bool
		e.Do(2, func(core.Env) { d = machines[2].Done() })
		return d
	}) {
		t.Fatal("IDs-Learning did not complete")
	}
	e.Do(2, func(core.Env) {
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
	e := start(t, stacks, engine.WithObserver(guard))

	for i := 0; i < n; i++ {
		i := core.ProcID(i)
		e.Do(i, func(env core.Env) { machines[i].Invoke(env) })
	}
	if !waitFor(t, 60*time.Second, func() bool {
		served := true
		for i := 0; i < n; i++ {
			i := core.ProcID(i)
			e.Do(i, func(core.Env) {
				if machines[i].Requested() {
					served = false
				}
			})
		}
		return served
	}) {
		t.Fatal("not every request was served on the concurrent substrate")
	}
	guard.mu.Lock()
	defer guard.mu.Unlock()
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("mutual exclusion violated: %v", v)
	}
	if checker.Entries() != n {
		t.Fatalf("served entries = %d, want %d", checker.Entries(), n)
	}
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	e := start(t, stacks)
	e.Close()
	e.Close() // second call must not panic or hang
}

// TestStartStopConcurrent pins the liveness and memory safety of the
// start and stop paths under -race: a cluster whose loops have barely
// launched, closed from many goroutines at once, must neither panic nor
// hang, and every Close returns only once the loops are gone.
func TestStartStopConcurrent(t *testing.T) {
	t.Parallel()
	for i := 0; i < 20; i++ {
		stacks, _ := pifStacks(3)
		e := start(t, stacks)
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Close()
			}()
		}
		wg.Wait()
	}
}

// TestStartTwicePanics pins the single-Start contract where it lives
// now: a cluster is born started, so the second Start of one of its
// kind of node is a bug the engine refuses.
func TestStartTwicePanics(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	n, err := engine.NewNode(engine.Memory(), 0, stacks[0], "", make([]string, 2))
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
	const c = 8
	var delivered atomic.Int64
	// Two sinks: nothing is sent but the burst.
	stacks := []core.Stack{
		{&countSink{inst: "flood", delivered: &delivered}},
		{&countSink{inst: "flood", delivered: &delivered}},
	}
	e := start(t, stacks, engine.WithCapacity(c))
	e.Do(0, func(env core.Env) {
		for i := 0; i < c; i++ {
			env.Send(1, core.Message{Instance: "flood", Kind: "burst"})
		}
	})
	if !waitFor(t, 10*time.Second, func() bool { return delivered.Load() >= c }) {
		t.Fatalf("delivered %d of %d burst messages", delivered.Load(), c)
	}
	if d := e.TransportStats()[0].SendDrops; d != 0 {
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
	stacks, _ := pifStacks(2)
	for name, build := range map[string]func() (*engine.Cluster, error){
		"one process": func() (*engine.Cluster, error) { return NewCluster(stacks[:1]) },
		"capacity 0":  func() (*engine.Cluster, error) { return NewCluster(stacks, engine.WithCapacity(0)) },
		"loss 1":      func() (*engine.Cluster, error) { return NewCluster(stacks, lossy(1)) },
	} {
		if c, err := build(); err == nil {
			c.Close()
			t.Errorf("%s accepted", name)
		}
	}
}
