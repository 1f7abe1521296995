package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// never is a tick no test outlives: an engine built with it has no step
// timer to speak of, so whatever completes, completes on arrival.
const never = time.Hour

// broadcasting is the façade's injected idiom: the condition issues the
// request on its first evaluation and holds once it decided.
func broadcasting(m *pif.PIF, token core.Payload) func(core.Env) bool {
	injected := false
	return func(env core.Env) bool {
		if !injected {
			injected = m.Invoke(env, token)
			return false
		}
		return m.Done() && m.BMes.Equal(token)
	}
}

func await(t *testing.T, e *Engine, m *pif.PIF, token core.Payload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.Await(ctx, 0, broadcasting(m, token)); err != nil {
		t.Fatalf("broadcast %v: %v", token, err)
	}
}

func totals(e *Engine) (sends, retransmits int64) {
	for _, s := range e.TransportStats() {
		sends += s.Sends
		retransmits += s.Retransmits
	}
	return sends, retransmits
}

func registered(e *Engine, p core.ProcID) int {
	e.procMu[p].Lock()
	defer e.procMu[p].Unlock()
	return e.waiters[p].Len()
}

// TestWarmBroadcastIsSixteenSends: with the step timer out of reach, a
// cold broadcast and then a warm one both complete — every flag left in
// the atomic section that produced it, and Await woke in the one that
// decided — and the warm one takes exactly 4(c+1)(n-1) sends at c = 1.
func TestWarmBroadcastIsSixteenSends(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	e := New(stacks, WithTick(never))
	e.Start()
	defer e.Stop()
	await(t, e, machines[0], core.Payload{Tag: "cold"})
	before, _ := totals(e)
	await(t, e, machines[0], core.Payload{Tag: "warm"})
	after, retransmits := totals(e)
	if after-before != 16 || retransmits != 0 {
		t.Fatalf("warm broadcast took %d sends (%d retransmissions), want 16 and 0", after-before, retransmits)
	}
}

// TestDuplicateEchoesCostNothing: every flag of every process starts at
// the top (the state a finished broadcast leaves), and process 1's
// echoes reach the initiator twice, nine times in ten. Each copy makes
// the initiator step once more; what that Step says was said already.
func TestDuplicateEchoesCostNothing(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	for _, m := range machines {
		for _, q := range m.Peers() {
			m.State[q] = m.FlagTop()
		}
	}
	plan := &core.FaultPlan{Seed: 3, Links: map[core.LinkSel]core.LinkFaults{{From: 1, To: 0}: {DupRate: 0.9}}}
	e := New(stacks, WithTick(never), WithFaults(plan))
	e.Start()
	defer e.Stop()
	await(t, e, machines[0], core.Payload{Tag: "hello"})
	if sends, _ := totals(e); sends != 16 {
		t.Fatalf("broadcast under duplicated echoes took %d sends, want 16", sends)
	}
	if d := e.FaultStats().Duplicates; d == 0 {
		t.Fatal("the plan duplicated nothing")
	}
}

// TestAwaitTrueAtOnce: a condition that holds on its first evaluation
// returns from that atomic section, registering nothing — on an engine
// that was never started.
func TestAwaitTrueAtOnce(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	e := New(stacks)
	evals := 0
	if err := e.Await(context.Background(), 0, func(core.Env) bool { evals++; return true }); err != nil {
		t.Fatal(err)
	}
	if evals != 1 || registered(e, 0) != 0 {
		t.Fatalf("%d evaluations, %d registered; want 1 and 0", evals, registered(e, 0))
	}
}

// TestAwaitEndsUnregistered: a wait ended by its context or by Stop
// returns the matching error and leaves nothing registered; Stop
// returns only once the process goroutines are gone.
func TestAwaitEndsUnregistered(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	e := New(stacks, WithTick(never))
	e.Start()
	ctx, cancel := context.WithCancel(context.Background())
	for _, tc := range []struct {
		name string
		ctx  context.Context
		end  func()
		want error
	}{
		{"ctx", ctx, cancel, context.Canceled},
		{"Stop", context.Background(), e.Stop, core.ErrClosed},
	} {
		errc := make(chan error, 1)
		go func() { errc <- e.Await(tc.ctx, 0, func(core.Env) bool { return false }) }()
		if !waitFor(t, 10*time.Second, func() bool { return registered(e, 0) == 1 }) {
			t.Fatalf("%s: Await never registered", tc.name)
		}
		tc.end()
		if err := <-errc; !errors.Is(err, tc.want) {
			t.Fatalf("%s: Await returned %v, want %v", tc.name, err, tc.want)
		}
		if k := registered(e, 0); k != 0 {
			t.Fatalf("%s: %d conditions left registered", tc.name, k)
		}
	}
}

// TestConcurrentAwaitsSerialize: two requests awaited at one process
// take turns — the second's Invoke is refused until the first decided —
// so their computations never interleave, timer or no timer.
func TestConcurrentAwaitsSerialize(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var order []core.EventKind
	stacks, machines := pifStacks(3)
	e := New(stacks, WithTick(never), WithObserver(core.ObserverFunc(func(ev core.Event) {
		if ev.Proc == 0 && (ev.Kind == core.EvStart || ev.Kind == core.EvDecide) {
			mu.Lock()
			order = append(order, ev.Kind)
			mu.Unlock()
		}
	})))
	e.Start()
	defer e.Stop()
	var wg sync.WaitGroup
	for i := int64(1); i <= 2; i++ {
		wg.Add(1)
		go func(token core.Payload) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := e.Await(ctx, 0, broadcasting(machines[0], token)); err != nil {
				t.Error(err)
			}
		}(core.Payload{Tag: "turn", Num: i})
	}
	wg.Wait()
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
