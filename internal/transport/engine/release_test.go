package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/spec"
)

// The tests in this file run whole in-memory clusters whose nodes own no
// goroutine while their load quiesces (DESIGN.md §7): the sections'
// releases drain what each other boxed, and past releaseBudget a release
// hands the rest to the node's carry loop, which ends once nothing is
// owed.

// TestReleaseHandsOffNeverQuiescing: the mutual exclusion's token laps
// forever, so a node on the lap always has mail owed. At n = 8 a
// thousand Do calls spread over the nodes each return — none is kept
// carrying the lap past its release's budget — and a request for the
// critical section is then served, exclusively.
func TestReleaseHandsOffNeverQuiescing(t *testing.T) {
	t.Parallel()
	const n, dos = 8, 1000
	stacks := make([]core.Stack, n)
	machines := make([]*mutex.ME, n)
	for i := range stacks {
		machines[i] = mutex.New("me", core.ProcID(i), n, int64(i+1))
		stacks[i] = machines[i].Machines()
	}
	checker := spec.NewMutexChecker()
	guard := &lockedObserver{inner: checker}
	c := start(t, stacks, WithObserver(guard))

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		for i := 0; i < dos; i++ {
			c.Do(core.ProcID(i%n), func(core.Env) {})
		}
	}()
	select {
	case <-returned:
	case <-time.After(time.Minute):
		t.Fatal("a Do never returned: its release kept carrying the lap")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	injected := false
	if err := c.Await(ctx, 3, func(env core.Env) bool {
		if !injected {
			injected = machines[3].Invoke(env)
			return false
		}
		return !machines[3].Requested()
	}); err != nil {
		t.Fatalf("Acquire at process 3: %v", err)
	}
	guard.obsMu.Lock()
	defer guard.obsMu.Unlock()
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("mutual exclusion violated: %v", v)
	}
	if checker.Entries() < 1 {
		t.Fatal("the request decided with no entry into the critical section")
	}
}

// TestReleaseLosesNoWakeup: every node runs a loop of Do calls, each a
// section whose release may owe a drain to a settle that found it busy,
// while every node also broadcasts, concurrently. Every broadcast
// decides and every Do loop finishes.
func TestReleaseLosesNoWakeup(t *testing.T) {
	t.Parallel()
	const n, rounds = 4, 25
	stacks, machines := pifStacks(n)
	c := start(t, stacks)

	stop := make(chan struct{})
	var loops, requests sync.WaitGroup
	for p := 0; p < n; p++ {
		loops.Add(1)
		go func(p core.ProcID) {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Do(p, func(core.Env) {})
			}
		}(core.ProcID(p))
	}
	errs := make(chan error, n)
	for p := 0; p < n; p++ {
		requests.Add(1)
		go func(p core.ProcID) {
			defer requests.Done()
			for r := 1; r <= rounds; r++ {
				token := core.Payload{Tag: "wake", Num: int64(p)*1000 + int64(r)}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				err := c.Await(ctx, p, broadcasting(machines[p], token))
				cancel()
				if err != nil {
					errs <- err
					return
				}
			}
		}(core.ProcID(p))
	}
	requests.Wait()
	close(stop)
	loops.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a broadcast never decided: %v", err)
	}
}

// TestCarryTakesOverAndEnds: two nodes pass a message back and forth
// 250 times. Node 0's Do sends the first; every answer finds node 0's mu
// held further up the same stack and is owed to its release, so past
// releaseBudget drains that release — or a tick's, if the timer cut in —
// starts node 0's carry loop and the exchange goes on there. Once it is
// over and the timers park, every carry loop has ended.
func TestCarryTakesOverAndEnds(t *testing.T) {
	const hopsTotal = 250
	stacks, machines := hops(2, true)
	nodes := running(t, stacks, WithCapacity(2))
	send(nodes[0], 1, hopsTotal-1)
	if !waitFor(30*time.Second, func() bool {
		return machines[0].got.Load()+machines[1].got.Load() == hopsTotal
	}) {
		t.Fatalf("the exchange stalled after %d of %d hops", machines[0].got.Load()+machines[1].got.Load(), hopsTotal)
	}
	if !machines[0].carried.Load() && !machines[1].carried.Load() {
		t.Fatal("no Deliver ran on a carry loop: node 0's release never handed the exchange off")
	}
	for i, n := range nodes {
		if !waitFor(10*time.Second, func() bool { return !n.looping.Load() }) {
			t.Fatalf("node %d's carry loop still runs with nothing owed", i)
		}
	}
}
