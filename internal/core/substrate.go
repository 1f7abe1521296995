package core

import (
	"context"
	"errors"
	"time"
)

// Substrate is a running execution substrate: a set of protocol stacks
// being executed under some scheduling discipline, with channels between
// them. The three engines of the repository implement it — the
// deterministic simulator (internal/sim), the goroutine runtime
// (internal/runtime), and the socket engine (internal/transport/engine,
// over the udp and tcp links) — so the high-level façade can assemble
// and drive a cluster without knowing which engine runs it.
//
// The interface deliberately exposes no scheduling detail. Its unit of
// interaction is the atomic external action: Do and Await run caller code
// atomically with respect to every protocol action of one process, which
// is exactly the power the paper's model grants the external application
// (submitting a request, reading the Request variable). How atomicity is
// realized — the simulator's single-threaded driver, the runtime's
// per-process mutex, the socket node's action mutex — is the substrate's
// business.
type Substrate interface {
	// N returns the number of processes.
	N() int

	// Do runs f atomically with respect to every protocol action of
	// process p, passing p's environment. Use it to inject requests and
	// read protocol state while the substrate runs. f must not block and
	// must not call back into the substrate.
	Do(p ProcID, f func(env Env))

	// Await drives or observes the execution until cond holds, then
	// returns nil. cond is evaluated in process p's atomic context,
	// exactly like a Do body, and is re-evaluated as the execution
	// advances; it may carry side effects — issuing the request under
	// test on its first successful evaluation is the idiomatic use.
	//
	// Await returns ctx.Err() when the context is cancelled first (the
	// execution itself keeps running), ErrClosed when the substrate was
	// closed first, or a substrate-specific error when the substrate
	// gives up (deterministic-simulator step budget exhausted). Await is
	// safe to call from many goroutines concurrently; each call waits for
	// its own condition.
	Await(ctx context.Context, p ProcID, cond func(env Env) bool) error

	// TransportStats returns one counter snapshot per process, and
	// FaultStats the injected-fault totals of the whole run so far (zero
	// without a FaultPlan). Both are safe to call while the substrate
	// runs, and after Close.
	TransportStatser
	FaultStats() FaultStats

	// Close permanently shuts the substrate down, releasing any
	// goroutines and sockets it holds and failing pending Awaits with
	// ErrClosed. It is idempotent and safe to call concurrently.
	Close() error
}

// ErrClosed is returned by Await on every substrate when the substrate
// (or the caller's view of it) was closed before the condition held.
var ErrClosed = errors.New("core: substrate closed")

// PollAwait is how the concurrent substrates wait for a condition: eval
// — the condition, run by the caller in the process's atomic context —
// is polled every interval until it holds, ctx ends, or one of the stop
// channels (nil: never) closes. Deliveries are event-driven, so the
// interval bounds only how soon an external observer notices a state
// change, not how fast the protocols progress. The simulator does not
// use it: its Await drives the scheduler rather than waits.
func PollAwait(ctx context.Context, every time.Duration, stop, done <-chan struct{}, eval func() bool) error {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		if eval() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-stop:
			return ErrClosed
		case <-done:
			return ErrClosed
		case <-ticker.C:
		}
	}
}
