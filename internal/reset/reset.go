// Package reset implements a snap-stabilizing global reset — the first
// application the paper names for PIF ("many fundamental protocols, e.g.,
// Reset, Snapshot, Leader Election, and Termination Detection, can be
// solved using a PIF-based solution", §4.1).
//
// A reset computation, requested at any process, drives every process to
// reinitialize its application state under a fresh epoch number and
// reports completion to the initiator only after every process
// acknowledged its reinitialization. Snap-stabilization is inherited from
// Protocol PIF (Theorem 2): no matter how corrupted the system is when
// the reset is requested, the decision certifies that every process
// executed the reset handler for this very epoch.
//
// The epoch counter itself is protocol state and can therefore be
// corrupted; what the protocol guarantees is relative consistency — all
// processes adopt the epoch value carried by the reset broadcast — not
// global monotonicity across corruptions, which no protocol can provide
// (the initial epoch is arbitrary by assumption).
package reset

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// TagReset is the broadcast payload tag; the Num field carries the epoch.
const TagReset = "RESET"

// TagAck is the feedback payload tag; the Num field echoes the epoch the
// responder adopted.
const TagAck = "RESET-ACK"

// Handler reinitializes the application at one process for the given
// epoch. It runs inside the receive action, atomically.
type Handler func(epoch int64)

// Reset is one process's instance of the reset protocol.
type Reset struct {
	pif.Client
	self core.ProcID
	n    int

	// Epoch is the epoch of the last reset this process initiated or
	// adopted.
	Epoch int64
	// Acked[q] records the epoch q acknowledged during the current
	// computation; used by the initiator's decision check. Entry self
	// unused.
	Acked []int64

	// OnReset is the application's reinitialization hook; may be nil.
	OnReset Handler
}

var (
	_ core.Machine     = (*Reset)(nil)
	_ core.Snapshotter = (*Reset)(nil)
	_ core.Corruptible = (*Reset)(nil)
)

// New returns a reset machine for process self. PIF options (capacity
// bound) are forwarded to the child machine.
func New(inst string, self core.ProcID, n int, pifOpts ...pif.Option) *Reset {
	r := &Reset{self: self, n: n, Acked: make([]int64, n)}
	r.Client = pif.NewClient(inst, self, n, pif.Callbacks{
		OnBroadcast: r.onBroadcast,
		OnFeedback:  r.onFeedback,
	}, pifOpts...)
	return r
}

// Machines returns the stack fragment in text order.
func (r *Reset) Machines() core.Stack { return core.Stack{r, r.PIF} }

// Step runs the internal actions in text order.
func (r *Reset) Step(env core.Env) bool {
	fired := false

	// A1: start — adopt a fresh epoch locally, reset the application,
	// and broadcast the epoch.
	if r.Request == core.Wait {
		r.Request = core.In
		r.Epoch++
		if r.OnReset != nil {
			r.OnReset(r.Epoch)
		}
		for q := range r.Acked {
			r.Acked[q] = -1
		}
		r.PIF.Reset(core.Payload{Tag: TagReset, Num: r.Epoch})
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: r.Instance(),
			Note: fmt.Sprintf("epoch=%d", r.Epoch)})
		fired = true
	}

	// A2: terminate when the PIF decided — every process acknowledged.
	if r.Request == core.In && r.PIF.Done() {
		r.Request = core.Done
		env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: r.Instance(),
			Note: fmt.Sprintf("epoch=%d", r.Epoch)})
		fired = true
	}

	return fired
}

// onBroadcast handles an incoming reset: adopt the epoch, reinitialize,
// acknowledge.
func (r *Reset) onBroadcast(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
	if b.Tag != TagReset {
		// Initial-configuration garbage: acknowledge neutrally without
		// touching the application.
		return core.Payload{Tag: TagAck, Num: -1}
	}
	r.Epoch = b.Num
	if r.OnReset != nil {
		r.OnReset(b.Num)
	}
	return core.Payload{Tag: TagAck, Num: b.Num}
}

// onFeedback records the epoch each process acknowledged.
func (r *Reset) onFeedback(_ core.Env, from core.ProcID, f core.Payload) {
	if f.Tag == TagAck {
		r.Acked[from] = f.Num
	}
}

// AllAcked reports whether every other process acknowledged the given
// epoch during the last computation (meaningful after a decision).
func (r *Reset) AllAcked(epoch int64) bool {
	for q := 0; q < r.n; q++ {
		if q == int(r.self) {
			continue
		}
		if r.Acked[q] != epoch {
			return false
		}
	}
	return true
}

// AppendState appends a canonical encoding of the machine state.
func (r *Reset) AppendState(dst []byte) []byte {
	dst = append(dst, 'R', byte(r.Request))
	for shift := 0; shift < 64; shift += 8 {
		dst = append(dst, byte(r.Epoch>>shift))
	}
	for q := 0; q < r.n; q++ {
		if q == int(r.self) {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(r.Acked[q]>>shift))
		}
	}
	return dst
}

// Corrupt overwrites every variable with random domain values (the child
// PIF corrupts itself as part of the stack).
func (r *Reset) Corrupt(rand core.Rand) {
	r.Request = core.ReqState(rand.Intn(core.NumReqStates))
	r.Epoch = int64(rand.Intn(1 << 12))
	for q := 0; q < r.n; q++ {
		if q == int(r.self) {
			continue
		}
		r.Acked[q] = int64(rand.Intn(1 << 12))
	}
}
