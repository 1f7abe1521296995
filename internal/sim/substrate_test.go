package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
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

// submitted registers cond at process p and returns the channel its
// completion's error arrives on.
func submitted(net *Network, p core.ProcID, cond func(core.Env) bool) <-chan error {
	errc := make(chan error, 1)
	net.Submit(p, cond, func(_ core.Env, err error) { errc <- err })
	return errc
}

// await is Submit, Drive and a channel: it returns the request's
// completion error, or ctx.Err() once ctx ends first, which leaves the
// request pending.
func await(ctx context.Context, net *Network, p core.ProcID, cond func(core.Env) bool) error {
	errc := submitted(net, p, cond)
	net.Drive()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
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
			if err := await(context.Background(), net, 0, pred); err != nil {
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
	err := await(context.Background(), net, 0, func(core.Env) bool { return false })
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
			errs[p] = await(context.Background(), net, core.ProcID(p), func(env core.Env) bool {
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

// TestAwaitContextCancel: a context ends only a wait, not the request.
// The abandoned request stays at the head of its process's queue, where
// the driver keeps evaluating it, and holds the requests behind it;
// other processes are still served; Close completes both queued
// requests with core.ErrClosed.
func TestAwaitContextCancel(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(2)
	net := New(stacks, WithSeed(1))
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0 // under subMu
	errc := submitted(net, 0, func(core.Env) bool { evals++; return false })
	queued := submitted(net, 0, func(core.Env) bool { t.Error("a request behind a pending one was evaluated"); return true })
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	net.Drive()
	<-ctx.Done()
	requested := false
	err := await(context.Background(), net, 1, func(env core.Env) bool {
		if !requested {
			requested = machines[1].Invoke(env, core.Payload{Tag: "after"})
			return false
		}
		return machines[1].Done()
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Sync(func() {
		if evals < 2 {
			t.Errorf("the abandoned request was evaluated %d times, want it evaluated after every step", evals)
		}
	})
	net.Close()
	for _, c := range []<-chan error{errc, queued} {
		if err := <-c; !errors.Is(err, core.ErrClosed) {
			t.Fatalf("queued request completed with %v, want core.ErrClosed", err)
		}
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
		done <- await(context.Background(), net, 0, func(core.Env) bool { return false })
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
	if err := await(context.Background(), net, 0, func(core.Env) bool { return true }); !errors.Is(err, core.ErrClosed) {
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
	if err := await(context.Background(), net, 0, func(core.Env) bool { return false }); !errors.As(err, &budget) {
		t.Fatalf("got %v, want *ErrBudget", err)
	}
	if err := await(context.Background(), net, 0, func(core.Env) bool { return true }); err != nil {
		t.Fatalf("already-true condition failed under zero budget: %v", err)
	}
}

// spinAwaits submits k requests whose condition never holds, spread
// over the processes, starts the driver, and returns a function that
// waits for them and hands back their errors.
func spinAwaits(net *Network, k int) func() []error {
	errcs := make([]<-chan error, k)
	for i := range errcs {
		errcs[i] = submitted(net, core.ProcID(i%net.N()), func(core.Env) bool { return false })
	}
	net.Drive()
	return func() []error {
		errs := make([]error, k)
		for i, errc := range errcs {
			errs[i] = <-errc
		}
		return errs
	}
}

// TestAwaitConcurrentBudget runs 16 never-true requests at once, four per
// process. Each one fails on its own budget, counted in scheduler steps
// since its Submit whoever they were taken for, so the four queued at one
// process fail in the same step: the head that ran out completes with
// *ErrBudget, and the request behind it, evaluated in the same pass, is
// out of its own budget too (a budget counted from its turn at the head
// would hold the last of the four to four budgets). Do and Sync from
// another goroutine get their turn while the sixteen are pending.
func TestAwaitConcurrentBudget(t *testing.T) {
	t.Parallel()
	const waiters, budget = 16, 10_000
	stacks, _ := pifStacks(4)
	net := New(stacks, WithSeed(7), WithAwaitBudget(budget))
	for i, err := range spinAwaits(net, waiters)() {
		var b *ErrBudget
		if !errors.As(err, &b) {
			t.Fatalf("await %d: got %v, want *ErrBudget", i, err)
		}
		if b.Steps != budget || b.Unit != "steps" {
			t.Fatalf("await %d: budget error = %+v, want %d steps", i, b, budget)
		}
	}
	if got := net.StepCount(); got != budget {
		t.Fatalf("%d requests submitted together took %d steps, want %d", waiters, got, budget)
	}

	// Without a budget the sixteen never finish, so a Sync that sees the
	// step count move ran while the driver steps for them.
	stacks, _ = pifStacks(4)
	net = New(stacks, WithSeed(7), WithAwaitBudget(math.MaxInt))
	wait := spinAwaits(net, waiters)
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
	net.Close()
	for i, err := range wait() {
		if !errors.Is(err, core.ErrClosed) {
			t.Fatalf("await %d: got %v, want core.ErrClosed", i, err)
		}
	}
}

// TestDriverExitsWhenIdle pins the one driver: a request at the head of
// its queue is evaluated on the submitting goroutine, nothing runs until
// it is waited for, one goroutine steps while it is pending, and none is
// left once it completed. It counts the driver's own goroutines, by the
// frame that created them, so what other tests leave running does not
// count.
func TestDriverExitsWhenIdle(t *testing.T) {
	stacks, machines := pifStacks(2)
	net := New(stacks, WithSeed(3))
	before := drivers(nil)
	for i := 0; i < 3; i++ {
		requested := false
		token := core.Payload{Tag: "idle", Num: int64(i)}
		during := 0
		errc := submitted(net, 0, func(env core.Env) bool {
			if !requested {
				requested = machines[0].Invoke(env, token)
				return false
			}
			during = max(during, len(drivers(before)))
			return machines[0].Done() && machines[0].BMes.Equal(token)
		})
		if d := len(drivers(before)); d != 0 || net.StepCount() != 0 && i == 0 {
			t.Fatalf("request %d: %d drivers and %d steps before it was waited for", i, d, net.StepCount())
		}
		net.Drive()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if during != 1 {
			t.Fatalf("request %d: up to %d drivers while it was pending, want 1", i, during)
		}
		if !waitFor(10_000, func() bool { return len(drivers(before)) == 0 }) {
			t.Fatalf("request %d: %d drivers after it completed", i, len(drivers(before)))
		}
	}
}

// drivers returns the ids of the goroutines Network.Drive started,
// leaving out those in skip.
func drivers(skip map[string]bool) map[string]bool {
	buf := make([]byte, 1<<16)
	k := runtime.Stack(buf, true)
	for ; k == len(buf); k = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	found := make(map[string]bool)
	for _, stack := range strings.Split(string(buf[:k]), "\n\n") {
		// "goroutine 42 [state]:" heads each stack, and "created by
		// <function> in goroutine 7" ends it, even before it first runs.
		if f := strings.Fields(stack); len(f) > 1 && !skip[f[1]] &&
			strings.Contains(stack, "/internal/sim.(*Network).Drive in goroutine ") {
			found[f[1]] = true
		}
	}
	return found
}

// waitFor polls cond every millisecond until it holds, k times at most.
func waitFor(k int, cond func() bool) bool {
	for ; k > 0; k-- {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestRequestsCompleteInProcessOrder: conditions that come true in the
// same step complete in process order, whatever order they were
// submitted in, and a request queued behind another at its process is
// first evaluated in the section that completes the one ahead.
func TestRequestsCompleteInProcessOrder(t *testing.T) {
	t.Parallel()
	stacks, _ := pifStacks(3)
	net := New(stacks, WithSeed(2))
	var order []string // under subMu
	at := func(step int) func(core.Env) bool {
		return func(core.Env) bool { return net.StepCount() >= step }
	}
	var errcs []<-chan error
	for _, r := range []struct {
		p    core.ProcID
		name string
		cond func(core.Env) bool
	}{
		{2, "2a", at(5)},
		{0, "0a", at(5)},
		{2, "2b", func(core.Env) bool {
			order = append(order, "2b evaluated")
			return true
		}},
		{1, "1a", at(5)},
	} {
		errc := make(chan error, 1)
		name := r.name
		net.Submit(r.p, r.cond, func(_ core.Env, err error) {
			order = append(order, name)
			errc <- err
		})
		errcs = append(errcs, errc)
	}
	net.Drive()
	for _, errc := range errcs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"0a", "1a", "2a", "2b evaluated", "2b"}
	if !slices.Equal(order, want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	if got := net.StepCount(); got != 5 {
		t.Fatalf("%d steps, want 5", got)
	}
}
