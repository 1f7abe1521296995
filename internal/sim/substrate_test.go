package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

func pifStacks(n int) ([]core.Stack, []*pif.PIF) {
	stacks := make([]core.Stack, n)
	machines := make([]*pif.PIF, n)
	for i := 0; i < n; i++ {
		machines[i] = pif.New("pif", core.ProcID(i), n, pif.Callbacks{})
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

// TestAwaitMatchesRunUntil pins Await's core determinism property: a
// single sequential request through Await replays the exact step
// sequence of RunUntil with the same predicate discipline, at every seed
// and loss rate — same steps, same counters, same final configuration.
func TestAwaitMatchesRunUntil(t *testing.T) {
	t.Parallel()
	run := func(seed uint64, loss float64, useAwait bool) (int, Stats, string) {
		stacks, machines := pifStacks(3)
		net := New(stacks, WithSeed(seed), WithLossRate(loss))
		token := core.Payload{Tag: "t", Num: 1}
		requested := false
		pred := func(env core.Env) bool {
			if !requested {
				requested = machines[0].Invoke(env, token)
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		}
		if useAwait {
			if err := net.Await(context.Background(), 0, pred); err != nil {
				t.Fatal(err)
			}
		} else {
			env := net.Env(0)
			if err := net.RunUntil(func() bool { return pred(env) }, 1_000_000); err != nil {
				t.Fatal(err)
			}
		}
		return net.StepCount(), net.Stats(), net.ConfigHash()
	}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, loss := range []float64{0, 0.1, 0.3} {
			aSteps, aStats, aHash := run(seed, loss, true)
			rSteps, rStats, rHash := run(seed, loss, false)
			if aSteps != rSteps || aStats != rStats || aHash != rHash {
				t.Fatalf("seed %d loss %v: Await %d steps %+v, RunUntil %d steps %+v (same configuration: %v)",
					seed, loss, aSteps, aStats, rSteps, rStats, aHash == rHash)
			}
		}
	}
}

// TestAwaitBudget verifies the per-Await step accounting.
func TestAwaitBudget(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	net := New(stacks, WithAwaitBudget(7))
	err := net.Await(context.Background(), 0, func(core.Env) bool { return false })
	var budget *ErrBudget
	if !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	if budget.Steps != 7 || budget.Unit != "steps" {
		t.Fatalf("budget error = %+v, want 7 steps", budget)
	}
}

// TestAwaitConcurrent drives many conditions at once: whichever request
// holds the mutex steps the one scheduler, and all of them complete.
func TestAwaitConcurrent(t *testing.T) {
	t.Parallel()
	const n = 4
	stacks, machines := pifStacks(n)
	net := New(stacks, WithSeed(5))
	var wg sync.WaitGroup
	errs := make([]error, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := machines[p]
			token := core.Payload{Tag: "c", Num: int64(p)}
			requested := false
			errs[p] = net.Await(context.Background(), core.ProcID(p), func(env core.Env) bool {
				if !requested {
					requested = m.Invoke(env, token)
					return false
				}
				return m.Done() && m.BMes.Equal(token)
			})
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("await %d: %v", p, err)
		}
	}
}

// TestAwaitContextCancel verifies cancellation ends the Await and leaves
// the network usable.
func TestAwaitContextCancel(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(2)
	net := New(stacks, WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- net.Await(ctx, 0, func(core.Env) bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Await never returned")
	}
	// The network still serves new Awaits.
	requested := false
	err := net.Await(context.Background(), 0, func(env core.Env) bool {
		if !requested {
			requested = machines[0].Invoke(env, core.Payload{Tag: "after"})
			return false
		}
		return machines[0].Done()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAwaitClose verifies Close fails pending and future Awaits and is
// idempotent.
func TestAwaitClose(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	net := New(stacks)
	done := make(chan error, 1)
	go func() {
		done <- net.Await(context.Background(), 0, func(core.Env) bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrClosed) {
			t.Fatalf("pending await got %v, want core.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending Await never failed after Close")
	}
	if err := net.Await(context.Background(), 0, func(core.Env) bool { return true }); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("await after close got %v, want core.ErrClosed", err)
	}
}

// TestAwaitZeroBudget pins RunUntil-compatible semantics for degenerate
// budgets: no panic, one condition evaluation, immediate *ErrBudget when
// it is false (and success when it is true).
func TestAwaitZeroBudget(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(2)
	net := New(stacks, WithAwaitBudget(0))
	var budget *ErrBudget
	if err := net.Await(context.Background(), 0, func(core.Env) bool { return false }); !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	if err := net.Await(context.Background(), 0, func(core.Env) bool { return true }); err != nil {
		t.Fatalf("already-true condition failed under zero budget: %v", err)
	}
}

// spinAwaits starts k concurrent Awaits whose condition never holds and
// returns a function that waits for them and hands back their errors.
func spinAwaits(ctx context.Context, net *Network, k int) func() []error {
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = net.Await(ctx, core.ProcID(i%net.N()), func(core.Env) bool { return false })
		}()
	}
	return func() []error { wg.Wait(); return errs }
}

// TestAwaitConcurrentBudget runs 16 never-true Awaits at once. Each one
// fails on its own budget, counted in scheduler steps since its call
// whoever took them; and Do and Sync from a seventeenth goroutine get
// their turn while the sixteen spin.
func TestAwaitConcurrentBudget(t *testing.T) {
	t.Parallel()
	const waiters, budget = 16, 10_000
	stacks, _ := pifStacks(4)
	net := New(stacks, WithSeed(7), WithAwaitBudget(budget))
	for i, err := range spinAwaits(context.Background(), net, waiters)() {
		var b *ErrBudget
		if !errors.As(err, &b) {
			t.Fatalf("await %d: got %v, want *ErrBudget", i, err)
		}
		if b.Steps < budget || b.Unit != "steps" {
			t.Fatalf("await %d: budget error = %+v, want at least %d steps", i, b, budget)
		}
	}
	if got := net.StepCount(); got < budget || got > waiters*budget {
		t.Fatalf("%d waiters took %d steps, want %d (all overlapped) to %d (none did)", waiters, got, budget, waiters*budget)
	}

	// Without a budget the sixteen cannot finish on their own, so a Sync
	// that sees the step count move ran while they spin: take five (on
	// one CPU each turn costs a preemption slice).
	stacks, _ = pifStacks(4)
	net = New(stacks, WithSeed(7), WithAwaitBudget(math.MaxInt))
	ctx, cancel := context.WithCancel(context.Background())
	wait := spinAwaits(ctx, net, waiters)
	for last, seen := 0, 0; seen < 5; {
		p := core.ProcID(seen % 4)
		net.Do(p, func(env core.Env) {
			if env.Self() != p {
				t.Errorf("Do(%d) ran with process %d's environment", p, env.Self())
			}
		})
		net.Sync(func() {
			if now := net.StepCount(); now > last {
				last = now
				seen++
			}
		})
	}
	cancel()
	for i, err := range wait() {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("await %d: got %v, want context.Canceled", i, err)
		}
	}
}

// TestDriverExitsWhenIdle pins that nothing is left running, because
// nothing is started: the waiter drives, so the goroutine count is the
// same before an Await, at every evaluation of its condition (on the
// caller's own goroutine) and after it. Not parallel: the count is the
// whole process's.
func TestDriverExitsWhenIdle(t *testing.T) {
	stacks, machines := pifStacks(2)
	net := New(stacks, WithSeed(3))
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		requested := false
		token := core.Payload{Tag: "idle", Num: int64(i)}
		during := ""
		err := net.Await(context.Background(), 0, func(env core.Env) bool {
			if g := runtime.NumGoroutine(); g != before && during == "" {
				during = fmt.Sprintf("%d goroutines at step %d", g, net.StepCount())
			}
			if !requested {
				requested = machines[0].Invoke(env, token)
				return false
			}
			return machines[0].Done() && machines[0].BMes.Equal(token)
		})
		if err != nil {
			t.Fatal(err)
		}
		if during != "" {
			t.Fatalf("request %d: %s, %d before the Await", i, during, before)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("request %d: %d goroutines after the Await, %d before", i, after, before)
		}
	}
}
