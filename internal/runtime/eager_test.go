package runtime

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// The engine's own eager_test.go pins the send rule and the wake-up Await
// exactly, on nodes it drives by hand. The tests here hold the same
// contract through this package's constructor, on running clusters: the
// step timer exists, so a run it took part in (Retransmits moved) counts
// for nothing and is repeated.

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

func await(t *testing.T, e *engine.Cluster, m *pif.PIF, token core.Payload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.Await(ctx, 0, broadcasting(m, token)); err != nil {
		t.Fatalf("broadcast %v: %v", token, err)
	}
}

func totals(e *engine.Cluster) (sends, retransmits int64) {
	for _, s := range e.TransportStats() {
		sends += s.Sends
		retransmits += s.Retransmits
	}
	return sends, retransmits
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
	stacks, machines := pifStacks(3)
	e := start(t, stacks)
	await(t, e, machines[0], core.Payload{Tag: "cold"})
	sends := untimed(t, func() (int64, int64) {
		before, r0 := totals(e)
		await(t, e, machines[0], core.Payload{Tag: "warm"})
		after, r1 := totals(e)
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
		stacks, machines := pifStacks(3)
		for _, m := range machines {
			for _, q := range m.Peers() {
				m.State[q] = m.FlagTop()
			}
		}
		plan := &core.FaultPlan{Seed: 3, Links: map[core.LinkSel]core.LinkFaults{{From: 1, To: 0}: {DupRate: 0.9}}}
		e := start(t, stacks, engine.WithFaults(plan))
		await(t, e, machines[0], core.Payload{Tag: "hello"})
		dups = e.FaultStats().Duplicates
		return totals(e)
	})
	if sends != 16 {
		t.Fatalf("broadcast under duplicated echoes took %d sends, want 16", sends)
	}
	if dups == 0 {
		t.Fatal("the plan duplicated nothing")
	}
}

// TestAwaitTrueAtOnce: a condition that holds on its first evaluation
// returns from that atomic section and is never evaluated again.
func TestAwaitTrueAtOnce(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(2)
	e := start(t, stacks)
	evals := 0
	if err := e.Await(context.Background(), 0, func(core.Env) bool { evals++; return true }); err != nil {
		t.Fatal(err)
	}
	await(t, e, machines[0], core.Payload{Tag: "after"}) // atomic sections at 0 that would re-evaluate it
	e.Do(0, func(core.Env) {
		if evals != 1 {
			t.Fatalf("%d evaluations, want 1", evals)
		}
	})
}

// TestAwaitEndsUnregistered: a wait ended by its context or by Close
// returns the matching error, and its condition is not evaluated again
// by the atomic sections that follow.
func TestAwaitEndsUnregistered(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(2)
	e := start(t, stacks)
	ctx, cancel := context.WithCancel(context.Background())
	for _, tc := range []struct {
		name string
		ctx  context.Context
		end  func()
		want error
	}{
		{"ctx", ctx, cancel, context.Canceled},
		{"Close", context.Background(), func() { e.Close() }, core.ErrClosed},
	} {
		evals := 0 // under process 0's action mutex
		evaluated := func() (k int) {
			e.Do(0, func(core.Env) { k = evals })
			return k
		}
		errc := make(chan error, 1)
		go func() { errc <- e.Await(tc.ctx, 0, func(core.Env) bool { evals++; return false }) }()
		if !waitFor(t, 10*time.Second, func() bool { return evaluated() >= 1 }) {
			t.Fatalf("%s: Await never evaluated its condition", tc.name)
		}
		tc.end()
		if err := <-errc; !errors.Is(err, tc.want) {
			t.Fatalf("%s: Await returned %v, want %v", tc.name, err, tc.want)
		}
		before := evaluated()
		if tc.want == context.Canceled {
			await(t, e, machines[0], core.Payload{Tag: "after"})
		}
		e.Do(0, func(env core.Env) { machines[0].Step(env) })
		if after := evaluated(); after != before {
			t.Fatalf("%s: condition evaluated %d more times after its wait ended", tc.name, after-before)
		}
	}
}

// TestConcurrentAwaitsSerialize: two requests awaited at one process
// take turns — the second's Invoke is refused until the first decided —
// so their computations never interleave.
func TestConcurrentAwaitsSerialize(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var order []core.EventKind
	stacks, machines := pifStacks(3)
	e := start(t, stacks, engine.WithObserver(core.ObserverFunc(func(ev core.Event) {
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
