package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
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
// interaction is the atomic external action: Do and Await run caller code
// atomically with respect to every protocol action of one process, which
// is exactly the power the paper's model grants the external application
// (submitting a request, reading the Request variable). How atomicity is
// realized — the simulator's one mutex, under which the awaiting caller
// steps the scheduler itself; the engine node's action mutex — is the
// substrate's business.
type Substrate interface {
	// N returns the number of processes.
	N() int

	// Do runs f atomically with respect to every protocol action of
	// process p, passing p's environment. Use it to inject requests and
	// read protocol state while the substrate runs. f must not block and
	// must not call back into the substrate.
	Do(p ProcID, f func(env Env))

	// Await drives (the simulator: the caller steps the scheduler) or
	// observes (the engine: the caller sleeps until a section at p makes
	// it true) the execution until cond holds, then returns nil. cond is
	// evaluated in process p's atomic context, exactly like a Do body,
	// and is re-evaluated as the execution advances — on this call's own
	// turns, not necessarily after every action; it may carry side
	// effects — issuing the request under test on its first successful
	// evaluation is the idiomatic use.
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

// LinkOut is the sender's record of one directed (peer, instance) link,
// kept in the engine's per-link slot, under the sender's action mutex:
// the last message the link sent and its repeat deadline. Times are on
// the engine's clock.
type LinkOut struct {
	last   Message
	used   bool          // last is valid
	left   bool          // last has been on the wire: saying it again is a repeat
	sentAt time.Duration // when last left, or a repeat of it was last tried
	rto    time.Duration // how long after sentAt a repeat comes due; 0: disarmed
}

// Pass applies the sending rule to m on path at time now and reports
// whether m leaves, and whether it leaves as a repeat of a message the
// link already put on the wire (Left). A repeat leaves only from the
// tick path, once now − sentAt ≥ rto; rto is step/2 after a new message
// and step after a repeat, so a lost message is tried again half a step
// after it left and a link that stays silent repeats once per step. A
// message the window refused every time it was said is not a repeat when
// it first leaves.
func (l *LinkOut) Pass(path SendPath, m Message, now, step time.Duration) (send, repeat bool) {
	if path == PathAction || !l.used || !l.last.Equal(m) {
		l.last, l.used, l.left, l.sentAt, l.rto = m, true, false, now, step/2
		return true, false
	}
	if path != PathTick || now-l.sentAt < l.rto {
		return false, false
	}
	l.sentAt, l.rto = now, step
	return true, l.left
}

// Left records that the link's last message went on the wire: the
// window admitted it.
func (l *LinkOut) Left() { l.left = true }

// Due reports when a repeat of the link's last message comes due, and
// whether the link is armed: whether a timer should wake for it.
func (l *LinkOut) Due() (at time.Duration, armed bool) {
	return l.sentAt + l.rto, l.rto != 0
}

// Expedite makes a repeat of the link's last message due at now: the
// window that refused it reopened, so it need not wait out its deadline.
func (l *LinkOut) Expedite(now time.Duration) {
	if l.used {
		l.rto = max(now-l.sentAt, 1)
	}
}

// Disarm stops the timer from waking for the link, whose deadline passed
// without a repeat: its last message is no longer what its stack says.
// A tick path that says it again still finds it due.
func (l *LinkOut) Disarm() { l.rto = 0 }

// Waiters holds the pending Awaits of one group of a node of the
// concurrent engine — on any of its links — and ends its atomic sections
// (Settle). Every method but Wait runs under the action mutex.
type Waiters struct {
	list    []*Waiter
	refused bool // a full link lost an eagerly stepped message since the last timer step
}

// Waiter is one registered condition.
type Waiter struct {
	cond func(Env) bool
	done chan struct{} // closed, under the action mutex, once cond held
}

// Eval is the first evaluation of an awaited condition: nil if cond
// already holds, else its registration, to be handed to Wait.
func (ws *Waiters) Eval(env Env, cond func(Env) bool) *Waiter {
	if cond(env) {
		return nil
	}
	w := &Waiter{cond: cond, done: make(chan struct{})}
	ws.list = append(ws.list, w)
	return w
}

// Len returns the number of registered conditions.
func (ws *Waiters) Len() int { return len(ws.list) }

// Settle ends an atomic section of an engine's loop: the stack steps on
// path (PathEager after mail, PathTick from a timer), the registered
// conditions are re-evaluated in order and, as one may Invoke, the stack
// steps again if any ran. envs is the process's Env per path. Eager
// stepping stands down from a Refused to the next timer step: a full
// channel loses what it is sent, and stepping into it only adds losses.
func (ws *Waiters) Settle(s Stack, envs *[NumPaths]Env, path SendPath) {
	ws.refused = ws.refused && path != PathTick
	if !ws.refused {
		s.Step(envs[path])
	}
	if len(ws.list) == 0 {
		return
	}
	ws.list = slices.DeleteFunc(ws.list, func(w *Waiter) bool {
		held := w.cond(envs[PathAction])
		if held {
			close(w.done)
		}
		return held
	})
	if !ws.refused {
		s.Step(envs[PathEager])
	}
}

// Refused records that a full link lost a message sent on path.
func (ws *Waiters) Refused(path SendPath) {
	ws.refused = ws.refused || path == PathEager
}

// Reopened records that an acknowledgment reopened a window which had
// refused a send: stepping into it loses nothing now, so eager stepping
// resumes without waiting for the timer step.
func (ws *Waiters) Reopened() { ws.refused = false }

// Wait blocks until w is released (nil), ctx ends (ctx.Err()), or stop or
// done (nil: never) closes (ErrClosed), and leaves w unregistered; mu is
// the action mutex. A nil w — the condition held at Eval — returns nil.
func (ws *Waiters) Wait(ctx context.Context, mu sync.Locker, w *Waiter, stop, done <-chan struct{}) error {
	if w == nil {
		return nil
	}
	err := ErrClosed
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-stop:
	case <-done:
	}
	mu.Lock()
	defer mu.Unlock()
	if i := slices.Index(ws.list, w); i >= 0 {
		ws.list = slices.Delete(ws.list, i, i+1)
		return err
	}
	return nil // released while we were taking the lock: completion wins
}
