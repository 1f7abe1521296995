// Substrate-mode driving: Network implements core.Substrate so the
// façade can run clusters on the deterministic simulator through the
// same interface as the concurrent engine.
//
// The simulator is single-threaded by design — all nondeterminism flows
// from one seeded PRNG — and it stays so under concurrent requests: one
// mutex guards the network, and one driver goroutine steps it. Each
// process keeps its requests in a core.Waiters, the queue the engine
// keeps per group: Submit appends a request (and evaluates it at once if
// it is the head); the driver takes every step, in runs of awaitRun per
// lock hold, and after each step completes every busy process's queue
// in process order (core.Waiters.Complete) — the evaluation that
// completes a request evaluates the next one at its process. Do, Sync
// and Submit take their turns between runs, which is what makes
// external actions atomic.
//
// The driver starts when a pending request is waited for (Drive) and
// exits when no request is pending; nothing runs before. Requests
// issued back to back and then waited for are all registered before the
// first step, so their execution is a function of the seed, whatever
// GOMAXPROCS is.
//
// Single-threaded deterministic use (RunUntil, Step, the experiments,
// the model checker, the adversary) never takes the mutex, so the hot
// path stays exactly as in DESIGN.md §4. A single request replays
// RunUntil's step sequence exactly: its condition is evaluated once at
// Submit and once after every step, and its budget counts scheduler
// steps since Submit: the budget is a wrapper Submit puts around the
// request's condition and completion.
package sim

import (
	"runtime"
	"slices"

	"github.com/snapstab/snapstab/internal/core"
)

// DefaultAwaitBudget is the per-request step budget when none is
// configured: generous enough for any terminating computation at the
// sizes this repository simulates.
const DefaultAwaitBudget = 50_000_000

// awaitRun is how many scheduler steps the driver takes per hold of the
// mutex. One step per hold pays for the lock on every step (about twice
// the cost of the step itself, more under contention); a bounded run
// keeps Do, Sync, Submit and Close from waiting on a long computation.
const awaitRun = 32

// WithAwaitBudget sets the step budget of each request: a request whose
// condition is still false after that many scheduler steps (counted from
// its Submit, whoever they were taken for) fails with *ErrBudget. A
// non-positive budget fails after the first condition evaluation, like
// RunUntil with a zero step budget. Default DefaultAwaitBudget.
func WithAwaitBudget(steps int) Option {
	return func(n *Network) { n.awaitBudget = steps }
}

var _ core.Substrate = (*Network)(nil)

// lock takes the substrate mutex from outside the driver, counting the
// caller as waiting so that the driver hands the mutex over between runs.
func (net *Network) lock() {
	net.outside.Add(1)
	net.subMu.Lock()
	net.outside.Add(-1)
}

// Do runs f atomically with respect to the scheduler, with process p's
// environment. Part of the core.Substrate interface; single-threaded
// callers can keep using Env(p) directly.
func (net *Network) Do(p core.ProcID, f func(env core.Env)) {
	net.lock()
	defer net.subMu.Unlock()
	f(net.envs[p])
}

// Sync runs f while the driver is not stepping. Callers that mutate or
// read the network as a whole while requests may be in flight (channel
// garbage, statistics) use it to stay race-free.
func (net *Network) Sync(f func()) {
	net.lock()
	defer net.subMu.Unlock()
	f()
}

// Submit registers a request at process p; see core.Substrate for the
// contract. done gets nil, core.ErrClosed, or *ErrBudget once the
// configured budget of steps since this Submit ran out with cond false.
// A request at the head of p's queue is evaluated at once; the driver,
// once Drive starts it, evaluates it after every step.
func (net *Network) Submit(p core.ProcID, cond func(env core.Env) bool, done func(env core.Env, err error)) {
	net.lock()
	defer net.subMu.Unlock()
	start := net.step
	var over error
	ws := &net.requests[p]
	ws.Submit(net.envs[p], func(env core.Env) bool {
		if cond(env) {
			return true
		}
		if steps := net.step - start; steps >= net.awaitBudget {
			over = &ErrBudget{Steps: steps, Unit: "steps"}
			return true
		}
		return false
	}, func(env core.Env, err error) {
		if err == nil {
			err = over
		}
		done(env, err)
	})
	if i, found := slices.BinarySearch(net.busy, p); !found && ws.Len() > 0 {
		net.busy = slices.Insert(net.busy, i, p)
	}
}

// Drive starts the driver if a request is pending and none runs. The
// driver steps until no request is pending; requests submitted while it
// runs join at the step they find.
func (net *Network) Drive() {
	if net.driving.Load() {
		return
	}
	net.lock()
	defer net.subMu.Unlock()
	if len(net.busy) > 0 && !net.driving.Load() {
		net.driving.Store(true)
		go net.drive()
	}
}

// drive is the driver: it steps the scheduler and completes every busy
// process's queue after each step, in runs of awaitRun steps per hold
// of the mutex, until no request is pending. Between runs it yields if
// a caller waits for the mutex, so a Do waits one run, not the mutex's
// starvation rule.
func (net *Network) drive() {
	net.subMu.Lock()
	for {
		for i := 0; i < awaitRun && len(net.busy) > 0; i++ {
			net.Step()
			idle := false
			for _, p := range net.busy {
				net.requests[p].Complete(net.envs[p])
				idle = idle || net.requests[p].Len() == 0
			}
			if idle {
				net.busy = slices.DeleteFunc(net.busy, func(p core.ProcID) bool { return net.requests[p].Len() == 0 })
			}
		}
		if len(net.busy) == 0 {
			net.driving.Store(false)
			net.subMu.Unlock()
			return
		}
		net.subMu.Unlock()
		if net.outside.Load() > 0 {
			runtime.Gosched()
		}
		net.subMu.Lock()
	}
}

// Close shuts substrate mode down: every pending request completes with
// core.ErrClosed, in process order, and so does every later one; the
// driver exits. Idempotent. The network itself remains readable
// single-threadedly afterwards.
func (net *Network) Close() error {
	net.lock()
	defer net.subMu.Unlock()
	for p := range net.requests {
		net.requests[p].Close(net.envs[p])
	}
	net.busy = net.busy[:0]
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
// readable while requests are in flight). Part of core.Substrate.
func (net *Network) FaultStats() core.FaultStats {
	if net.inj == nil {
		return core.FaultStats{}
	}
	return net.inj.Stats()
}
