// Package idl implements Protocol IDL (Algorithm 2 of the paper): the
// snap-stabilizing IDs-Learning protocol, a direct client of Protocol PIF.
//
// A complete computation (from the start action to the decision) leaves
// the initiator knowing the identifier of every neighbour (ID-Tab) and the
// minimum identifier in the system (minID) — Specification 2. Algorithm 3
// uses it to locate the leader before every critical-section attempt.
package idl

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// Message payload tags used on the wire.
const (
	// TagQuery is the broadcast payload ("IDL" in Algorithm 2).
	TagQuery = "IDL"
	// TagID tags feedback payloads carrying the responder's identifier.
	TagID = "ID"
)

// IDL is one process's instance of Protocol IDL. The child PIF machine
// must be placed immediately after it in the process's stack (Machines
// assembles both in order).
type IDL struct {
	pif.Client
	self core.ProcID
	n    int
	id   int64

	// MinID is the smallest identifier learned (output variable).
	MinID int64
	// IDTab[q] is the learned identifier of process q (output variable;
	// entry self unused).
	IDTab []int64
}

var (
	_ core.Machine     = (*IDL)(nil)
	_ core.Snapshotter = (*IDL)(nil)
	_ core.Corruptible = (*IDL)(nil)
)

// New returns an IDL machine for process self with identifier id, layered
// on a fresh PIF instance named inst+"/pif". PIF options (capacity bound)
// are forwarded.
func New(inst string, self core.ProcID, n int, id int64, pifOpts ...pif.Option) *IDL {
	d := &IDL{self: self, n: n, id: id, IDTab: make([]int64, n)}
	d.Client = pif.NewClient(inst, self, n, pif.Callbacks{
		// A3 :: receive-brd<IDL> from q -> F-Mes[q] <- ID_p.
		OnBroadcast: func(_ core.Env, _ core.ProcID, _ core.Payload) core.Payload {
			return core.Payload{Tag: TagID, Num: d.id}
		},
		// A4 :: receive-fck<qID> from q -> learn it.
		OnFeedback: func(_ core.Env, from core.ProcID, f core.Payload) {
			d.IDTab[from] = f.Num
			if f.Num < d.MinID {
				d.MinID = f.Num
			}
		},
	}, pifOpts...)
	return d
}

// Machines returns the stack fragment for this protocol: the IDL machine
// followed by its PIF, in text order.
func (d *IDL) Machines() core.Stack { return core.Stack{d, d.PIF} }

// ID returns the process's own (constant) identifier.
func (d *IDL) ID() int64 { return d.id }

// Reset unconditionally re-requests a computation, abandoning any in
// progress; used by composed protocols (Algorithm 3's action A0).
func (d *IDL) Reset() { d.Request = core.Wait }

// Step runs the internal actions A1 and A2 in text order.
func (d *IDL) Step(env core.Env) bool {
	fired := false

	// A1 :: Request = Wait -> start: reset minID and launch the PIF.
	if d.Request == core.Wait {
		d.Request = core.In
		d.MinID = d.id
		d.PIF.Reset(core.Payload{Tag: TagQuery})
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: d.Instance()})
		fired = true
	}

	// A2 :: Request = In and PIF.Request = Done -> terminate.
	if d.Request == core.In && d.PIF.Done() {
		d.Request = core.Done
		env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: d.Instance(),
			Note: fmt.Sprintf("minID=%d", d.MinID)})
		fired = true
	}

	return fired
}

// AppendState appends a canonical encoding of the machine state (the
// child PIF encodes itself separately as part of the stack).
func (d *IDL) AppendState(dst []byte) []byte {
	dst = append(dst, 'I', byte(d.Request))
	for shift := 0; shift < 64; shift += 8 {
		dst = append(dst, byte(d.MinID>>shift))
	}
	for q := 0; q < d.n; q++ {
		if q == int(d.self) {
			continue
		}
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(d.IDTab[q]>>shift))
		}
	}
	return dst
}

// Corrupt overwrites every variable with random values (the child PIF
// corrupts itself separately as part of the stack). The identifier is a
// constant and survives.
func (d *IDL) Corrupt(r core.Rand) {
	d.Request = core.ReqState(r.Intn(core.NumReqStates))
	d.MinID = int64(r.Intn(1 << 16))
	for q := 0; q < d.n; q++ {
		if q == int(d.self) {
			continue
		}
		d.IDTab[q] = int64(r.Intn(1 << 16))
	}
}
