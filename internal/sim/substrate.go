// Substrate-mode driving: Network implements core.Substrate so the
// façade can run clusters on the deterministic simulator through the
// same interface as the concurrent engine.
//
// The simulator is single-threaded by design — all nondeterminism flows
// from one seeded PRNG — and it stays so under concurrent requests: one
// mutex guards the network, and the waiter drives. Await is RunUntil
// under that mutex: the calling goroutine evaluates its own condition
// and steps the scheduler, in runs of awaitRun steps per lock hold. Do,
// Sync and other Awaits take their turns between runs, which is what
// makes external actions atomic; the condition of another pending Await
// is evaluated on that Await's own turns, not after every step. There is
// no driver goroutine, no waiter list and nothing to wake or release.
//
// Single-threaded deterministic use (RunUntil, Step, the experiments,
// the model checker, the adversary) never takes the mutex, so the hot
// path stays exactly as in DESIGN.md §4. A single sequential request
// through Await replays RunUntil's step sequence exactly: the condition
// is evaluated once before the first step and once after every step,
// and the budget counts scheduler steps since the call.
package sim

import (
	"context"

	"github.com/snapstab/snapstab/internal/core"
)

// DefaultAwaitBudget is the per-Await step budget when none is
// configured: generous enough for any terminating computation at the
// sizes this repository simulates.
const DefaultAwaitBudget = 50_000_000

// awaitRun is how many scheduler steps an Await takes per hold of the
// mutex. One step per hold pays for the lock on every step (about twice
// the cost of the step itself, more under contention); a bounded run
// keeps Do, Sync, Close and cancellation from waiting on a long Await.
const awaitRun = 32

// WithAwaitBudget sets the step budget of each Await: an Await whose
// condition is still false after that many scheduler steps (counted from
// the call, whoever took them) fails with *ErrBudget. A non-positive
// budget fails after the first condition evaluation, like RunUntil with
// a zero step budget. Default DefaultAwaitBudget.
func WithAwaitBudget(steps int) Option {
	return func(n *Network) { n.awaitBudget = steps }
}

var _ core.Substrate = (*Network)(nil)

// Do runs f atomically with respect to the scheduler, with process p's
// environment. Part of the core.Substrate interface; single-threaded
// callers can keep using Env(p) directly.
func (net *Network) Do(p core.ProcID, f func(env core.Env)) {
	net.subMu.Lock()
	defer net.subMu.Unlock()
	f(net.envs[p])
}

// Sync runs f while no Await is stepping. Callers that mutate or read
// the network as a whole while Awaits may be in flight (channel garbage,
// statistics) use it to stay race-free.
func (net *Network) Sync(f func()) {
	net.subMu.Lock()
	defer net.subMu.Unlock()
	f()
}

// Await steps the scheduler until cond holds; see core.Substrate for the
// contract. The returned error is nil, ctx.Err(), core.ErrClosed, or
// *ErrBudget after the configured await budget. Closing and cancellation
// are noticed between runs of awaitRun steps.
func (net *Network) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	env := net.envs[p]
	net.subMu.Lock()
	defer net.subMu.Unlock()
	start := net.step
	for {
		if net.subClosed {
			return core.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < awaitRun; i++ {
			if cond(env) {
				return nil
			}
			if steps := net.step - start; steps >= net.awaitBudget {
				return &ErrBudget{Steps: steps, Unit: "steps"}
			}
			net.Step()
		}
		net.subMu.Unlock() // let Do, Sync, Close and other Awaits in
		net.subMu.Lock()
	}
}

// Close shuts substrate mode down: every pending or future Await fails
// with core.ErrClosed. Idempotent. The network itself remains readable
// single-threadedly afterwards.
func (net *Network) Close() error {
	net.subMu.Lock()
	net.subClosed = true
	net.subMu.Unlock()
	return nil
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
