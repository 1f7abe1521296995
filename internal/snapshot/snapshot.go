// Package snapshot implements snap-stabilizing global state collection,
// the second application the paper names for PIF ("Reset, Snapshot,
// Leader Election, and Termination Detection", §4.1).
//
// A collection requested at process p broadcasts a probe and gathers, in
// the feedback phase, the application state of every process. By
// Theorem 2 the gathered values are exactly the states the processes
// reported for THIS probe — never stale channel garbage — regardless of
// the initial configuration.
//
// What this gives is an *instantaneous-per-process* snapshot (each value
// was read atomically at its process while the probe computation ran),
// not a Chandy–Lamport consistent cut with channel states; the paper's
// PIF-based snapshot is of this kind, and it is exactly what IDs-Learning
// instantiates with "state = identifier". The package generalizes it to
// arbitrary application state.
package snapshot

import (
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// TagProbe is the broadcast payload tag; Num carries a probe nonce.
const TagProbe = "SNAP"

// Provider reads one process's application state, atomically within the
// receive action. The returned payload is shipped as feedback.
type Provider func() core.Payload

// Snapshot is one process's instance of the collection protocol.
type Snapshot struct {
	pif.Client
	self core.ProcID
	n    int

	// Views[q] is the state collected from q during the last computation
	// (entry self is filled at the start action). Output variable.
	Views []core.Payload
	// Nonce tags the probes of this process's computations.
	Nonce int64

	// Provide reads the local application state; nil yields zero
	// payloads.
	Provide Provider
}

var (
	_ core.Machine     = (*Snapshot)(nil)
	_ core.Snapshotter = (*Snapshot)(nil)
	_ core.Corruptible = (*Snapshot)(nil)
)

// New returns a snapshot machine for process self.
func New(inst string, self core.ProcID, n int, pifOpts ...pif.Option) *Snapshot {
	s := &Snapshot{self: self, n: n, Views: make([]core.Payload, n)}
	s.Client = pif.NewClient(inst, self, n, pif.Callbacks{
		OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
			if b.Tag != TagProbe {
				return core.Payload{} // garbage probe: neutral reply
			}
			if s.Provide == nil {
				return core.Payload{}
			}
			return s.Provide()
		},
		OnFeedback: func(_ core.Env, from core.ProcID, f core.Payload) {
			s.Views[from] = f
		},
	}, pifOpts...)
	return s
}

// Machines returns the stack fragment in text order.
func (s *Snapshot) Machines() core.Stack { return core.Stack{s, s.PIF} }

// Step runs the internal actions in text order.
func (s *Snapshot) Step(env core.Env) bool {
	fired := false
	if s.Request == core.Wait {
		s.Request = core.In
		s.Nonce++
		if s.Provide != nil {
			s.Views[s.self] = s.Provide()
		} else {
			s.Views[s.self] = core.Payload{}
		}
		s.PIF.Reset(core.Payload{Tag: TagProbe, Num: s.Nonce})
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: s.Instance()})
		fired = true
	}
	if s.Request == core.In && s.PIF.Done() {
		s.Request = core.Done
		env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: s.Instance()})
		fired = true
	}
	return fired
}

// AppendState appends a canonical encoding of the machine state.
func (s *Snapshot) AppendState(dst []byte) []byte {
	dst = append(dst, 'V', byte(s.Request))
	for shift := 0; shift < 64; shift += 8 {
		dst = append(dst, byte(s.Nonce>>shift))
	}
	for q := 0; q < s.n; q++ {
		dst = core.AppendPayload(dst, s.Views[q])
	}
	return dst
}

// Corrupt overwrites every variable with random domain values.
func (s *Snapshot) Corrupt(r core.Rand) {
	s.Request = core.ReqState(r.Intn(core.NumReqStates))
	s.Nonce = int64(r.Intn(1 << 12))
	for q := 0; q < s.n; q++ {
		s.Views[q] = pif.GarbagePayload(r)
	}
}
