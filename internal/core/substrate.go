package core

import (
	"errors"
	"slices"
)

// Substrate is a running execution substrate: a set of protocol stacks
// being executed under some scheduling discipline, with channels between
// them. The two engines of the repository implement it — the
// deterministic simulator (internal/sim) and the concurrent engine
// (internal/transport/engine, over its in-memory, udp and tcp links) —
// so the high-level façade can assemble and drive a cluster without
// knowing which engine runs it.
//
// The interface deliberately exposes no scheduling detail. Its unit of
// interaction is the atomic external action: Do and Submit run caller
// code atomically with respect to every protocol action of one process,
// which is exactly the power the paper's model grants the external
// application (submitting a request, reading the Request variable). How
// atomicity is realized — the simulator's one mutex, under which its
// driver steps the scheduler; the engine node's action mutex — is the
// substrate's business. Nothing waits inside a substrate: a request is a
// registered condition, and the section that makes it true completes it.
type Substrate interface {
	// N returns the number of processes.
	N() int

	// Do runs f atomically with respect to every protocol action of
	// process p, passing p's environment. Use it to inject requests and
	// read protocol state while the substrate runs. f must not block and
	// must not call back into the substrate.
	Do(p ProcID, f func(env Env))

	// Submit registers a request at process p and returns at once. cond
	// is evaluated in p's atomic context, exactly like a Do body, and
	// re-evaluated as the execution advances (after every simulator
	// step; at the end of every atomic section at p on the engine); it
	// may carry side effects — issuing the request on its first
	// successful evaluation is the idiomatic use. done runs exactly once,
	// also in p's atomic context: with nil in the section where cond
	// held, with ErrClosed when the substrate (or the caller's view of
	// it) closes or its node halts first, or with a substrate-specific
	// error when the substrate gives up (the simulator's step budget,
	// *sim.ErrBudget).
	//
	// Requests at one process form a FIFO: request k+1's cond is first
	// evaluated in the section that completes request k, never earlier,
	// so two requests never race for one machine's decision window.
	// Neither cond nor done may block or call back into the substrate.
	Submit(p ProcID, cond func(env Env) bool, done func(env Env, err error))

	// TransportStats returns one counter snapshot per process, and
	// FaultStats the injected-fault totals of the whole run so far (zero
	// without a FaultPlan). Both are safe to call while the substrate
	// runs, and after Close.
	TransportStatser
	FaultStats() FaultStats

	// Close permanently shuts the substrate down, releasing any
	// goroutines and sockets it holds and completing pending requests
	// with ErrClosed. It is idempotent and safe to call concurrently.
	Close() error
}

// ErrClosed completes a request on every substrate when the substrate
// (or the caller's view of it) was closed before the condition held.
var ErrClosed = errors.New("core: substrate closed")

// SendPath says where in a concurrent engine a Send comes from. A message
// that differs from the last one on its link is new and always leaves;
// whether an identical one, a repeat, does depends on the path.
type SendPath uint8

const (
	// PathAction: a Deliver, a Do body, an awaited condition. It leaves:
	// what Deliver answers, the peer is waiting for.
	PathAction SendPath = iota
	// PathEager: the Step ending an atomic section. It is lost at the
	// sender, silently, as the model allows.
	PathEager
	// PathTick: the step tick's Step. It leaves once its link's repeat
	// deadline has passed.
	PathTick
	NumPaths // sizes a per-path table
)

// Waiters holds the pending requests of one process — one group of an
// engine node, one process of the simulator — as a FIFO: the one request
// queue of both engines. Only the head's condition is evaluated; the
// section that completes it evaluates the next. Every method runs in the
// process's atomic context (the engine's action mutex, the simulator's
// one mutex), and so does every callback.
type Waiters struct {
	list   []waiter
	closed bool // Close ran: every request fails with ErrClosed
}

// waiter is one registered request.
type waiter struct {
	cond func(Env) bool
	done func(Env, error)
}

// Submit registers a request. At the head of the queue, cond is
// evaluated at once, on env, and a request that holds completes there;
// behind another, it waits its turn. After Close, done runs at once with
// ErrClosed.
func (ws *Waiters) Submit(env Env, cond func(Env) bool, done func(Env, error)) {
	if ws.closed {
		done(env, ErrClosed)
		return
	}
	ws.list = append(ws.list, waiter{cond: cond, done: done})
	if len(ws.list) == 1 {
		ws.Complete(env)
	}
}

// Complete evaluates the head's condition and, while it holds, completes
// the head and evaluates the next. The head leaves the queue before its
// done runs, so a done that registers a request appends behind the rest.
// The substrate calls it wherever the execution advanced: the engine at
// the end of every atomic section, the simulator after every step.
func (ws *Waiters) Complete(env Env) {
	for len(ws.list) > 0 && ws.list[0].cond(env) {
		w := ws.list[0]
		ws.list = slices.Delete(ws.list, 0, 1)
		w.done(env, nil)
	}
}

// Close completes every pending request with ErrClosed, in order, and
// every later one at Submit: the node halted, or the view of it closed.
func (ws *Waiters) Close(env Env) {
	ws.closed = true
	for len(ws.list) > 0 {
		w := ws.list[0]
		ws.list = slices.Delete(ws.list, 0, 1)
		w.done(env, ErrClosed)
	}
}

// Len returns the number of pending requests.
func (ws *Waiters) Len() int { return len(ws.list) }
