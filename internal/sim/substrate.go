// Substrate-mode driving: Network implements core.Substrate so the
// façade can run clusters on the deterministic simulator through the
// same interface as the concurrent engines.
//
// The simulator is single-threaded by design — all nondeterminism flows
// from one seeded PRNG — so concurrent external requests cannot each
// drive the scheduler. Instead, the first Await lazily spawns ONE driver
// goroutine that owns the scheduler while any request is pending: each
// loop iteration it locks the network, evaluates every registered
// completion condition (in registration order), fails the ones whose
// step budget is exhausted, executes one scheduler step if any remain,
// and unlocks. Do, Sync, and new Awaits interleave between iterations
// under the same mutex, which is what makes external actions atomic.
//
// Single-threaded deterministic use (RunUntil, Step, the experiments,
// the model checker, the adversary) never calls Await, so the driver is
// never spawned and the hot path stays exactly as in DESIGN.md §4. A
// single sequential request through Await replays the same step sequence
// as the old RunUntil-based façade: the condition is evaluated once at
// registration and once after every step, and the budget counts steps
// elapsed since registration.
package sim

import (
	"context"

	"github.com/snapstab/snapstab/internal/core"
)

// DefaultAwaitBudget is the per-Await step budget when none is
// configured: generous enough for any terminating computation at the
// sizes this repository simulates.
const DefaultAwaitBudget = 50_000_000

// ErrClosed is returned by Await when the network was closed before (or
// while) the condition was being awaited: core.ErrClosed, under the name
// this package's callers know.
var ErrClosed = core.ErrClosed

// WithAwaitBudget sets the step budget of each Await: an Await whose
// condition is still false after that many scheduler steps (counted from
// its registration) fails with *ErrBudget. A non-positive budget fails
// after the first condition evaluation, like RunUntil with a zero step
// budget. Default DefaultAwaitBudget.
func WithAwaitBudget(steps int) Option {
	return func(n *Network) { n.awaitBudget = steps }
}

// awaitWaiter is one pending Await: a completion condition plus the
// bookkeeping the driver needs to satisfy or expire it.
type awaitWaiter struct {
	p     core.ProcID
	cond  func(core.Env) bool
	done  chan struct{}
	err   error // written (at most once) before done is closed
	steps int   // scheduler steps elapsed since registration
}

var _ core.Substrate = (*Network)(nil)

// Do runs f atomically with respect to the driver, with process p's
// environment. Part of the core.Substrate interface; single-threaded
// callers can keep using Env(p) directly.
func (net *Network) Do(p core.ProcID, f func(env core.Env)) {
	net.subMu.Lock()
	defer net.subMu.Unlock()
	f(net.envs[p])
}

// Sync runs f while the driver is paused. Callers that mutate or read
// the network as a whole while Awaits may be in flight (corruption,
// statistics) use it to stay race-free.
func (net *Network) Sync(f func()) {
	net.subMu.Lock()
	defer net.subMu.Unlock()
	f()
}

// Await registers cond and drives the scheduler until it holds; see
// core.Substrate for the contract. The returned error is nil, ctx.Err(),
// ErrClosed, or *ErrBudget after the configured await budget.
func (net *Network) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	w := &awaitWaiter{p: p, cond: cond, done: make(chan struct{})}
	net.subMu.Lock()
	if net.subClosed {
		net.subMu.Unlock()
		return ErrClosed
	}
	net.subWaiters = append(net.subWaiters, w)
	if !net.subDriver {
		net.subDriver = true
		go net.drive()
	}
	net.subMu.Unlock()

	select {
	case <-w.done:
		return w.err
	case <-ctx.Done():
		net.subMu.Lock()
		for i, x := range net.subWaiters {
			if x == w {
				net.subWaiters = append(net.subWaiters[:i], net.subWaiters[i+1:]...)
				break
			}
		}
		net.subMu.Unlock()
		// The driver may have satisfied the condition while we were
		// acquiring the lock; completion wins over cancellation.
		select {
		case <-w.done:
			return w.err
		default:
			return ctx.Err()
		}
	}
}

// Close shuts substrate mode down: every pending or future Await fails
// with ErrClosed. Idempotent. The network itself remains readable
// single-threadedly afterwards.
func (net *Network) Close() error {
	net.subMu.Lock()
	net.subClosed = true
	// A running driver observes subClosed on its next iteration and
	// fails the pending waiters; an idle network has no driver (it exits
	// whenever the waiter list drains), so there is nothing to wake.
	net.subMu.Unlock()
	return nil
}

// drive owns the scheduler while requests are pending. One iteration:
// sweep the conditions, expire budgets, take one step if work remains.
// It exits as soon as the waiter list drains — the next Await respawns
// it — so an idle network holds no goroutine, and pre-Close code that
// never calls Close leaks nothing.
func (net *Network) drive() {
	for {
		net.subMu.Lock()
		if net.subClosed {
			for _, w := range net.subWaiters {
				w.err = ErrClosed
				close(w.done)
			}
			net.subWaiters = nil
			net.subDriver = false
			net.subMu.Unlock()
			return
		}
		if len(net.subWaiters) == 0 {
			net.subDriver = false
			net.subMu.Unlock()
			return
		}
		keep := net.subWaiters[:0]
		for _, w := range net.subWaiters {
			switch {
			case w.cond(net.envs[w.p]):
				close(w.done)
			case w.steps >= net.awaitBudget:
				w.err = &ErrBudget{Steps: w.steps, Unit: "steps"}
				close(w.done)
			default:
				keep = append(keep, w)
			}
		}
		net.subWaiters = keep
		if len(net.subWaiters) > 0 {
			net.Step()
			for _, w := range net.subWaiters {
				w.steps++
			}
		}
		net.subMu.Unlock()
	}
}

// TransportStats implements core.TransportStatser with one zero-valued
// entry per process: the simulator counts per network (Stats), not per
// node. Callers that range over per-node transport counters work
// uniformly across substrates.
func (net *Network) TransportStats() []core.TransportStats {
	return make([]core.TransportStats, net.N())
}

// FaultStats returns the injected-fault counters (Stats().Faults alone,
// readable while Awaits are in flight). Part of core.Substrate.
func (net *Network) FaultStats() core.FaultStats {
	if net.inj == nil {
		return core.FaultStats{}
	}
	return net.inj.Stats()
}
