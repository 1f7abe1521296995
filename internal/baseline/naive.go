// Package baseline implements the comparison protocols the paper's
// argument is framed against:
//
//   - Naive is the "naive attempt" of §4.1: one broadcast message, one
//     feedback message, no handshake. Correct from a clean configuration
//     on reliable channels; from an arbitrary initial configuration it
//     deadlocks under loss and accepts feedback nobody sent.
//   - SeqPIF is a deterministic self-stabilizing (but not
//     snap-stabilizing) PIF in the style of sequence-number protocols for
//     unbounded channels (Katz & Perry; Afek & Brown's setting): each
//     computation carries a fresh counter value and accepts only matching
//     acknowledgments. It converges — once the counter passes every value
//     in the initial channel garbage, computations are correct forever —
//     but the requests issued before convergence can be violated, which is
//     precisely the self- vs snap-stabilization gap (experiment E8).
//
// Both reuse the core machine interfaces so they run on the same
// substrates and are judged by the same specification checkers as the
// snap-stabilizing protocols.
package baseline

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// Message kinds of the naive protocol.
const (
	// KindNaiveBrd carries the broadcast value.
	KindNaiveBrd = "NPIF-B"
	// KindNaiveFck carries the feedback value.
	KindNaiveFck = "NPIF-F"
)

// Naive is the naive PIF of §4.1: broadcast once, wait for one feedback
// per neighbour.
type Naive struct {
	inst string
	self core.ProcID
	n    int
	cb   pif.Callbacks

	// Request drives computations.
	Request core.ReqState
	// BMes is the value to broadcast.
	BMes core.Payload
	// Acked[q] records whether a feedback from q was accepted.
	Acked []bool
}

var (
	_ core.Machine     = (*Naive)(nil)
	_ core.Snapshotter = (*Naive)(nil)
	_ core.Corruptible = (*Naive)(nil)
)

// NewNaive returns a naive machine for process self.
func NewNaive(inst string, self core.ProcID, n int, cb pif.Callbacks) *Naive {
	if n < 2 {
		panic(fmt.Sprintf("baseline: need n >= 2, got %d", n))
	}
	return &Naive{
		inst:    inst,
		self:    self,
		n:       n,
		cb:      cb,
		Request: core.Done,
		Acked:   make([]bool, n),
	}
}

// Instance returns the protocol instance ID.
func (m *Naive) Instance() string { return m.inst }

// SetCallbacks replaces the application callbacks (observation hooks).
func (m *Naive) SetCallbacks(cb pif.Callbacks) { m.cb = cb }

// Invoke submits an external request to broadcast b; rejected while busy.
func (m *Naive) Invoke(env core.Env, b core.Payload) bool {
	if m.Request != core.Done {
		return false
	}
	m.BMes = b
	m.Request = core.Wait
	env.Emit(core.Event{Kind: core.EvRequest, Peer: -1, Instance: m.inst, Note: b.String()})
	return true
}

// Done reports whether no computation is requested or in progress.
func (m *Naive) Done() bool { return m.Request == core.Done }

// Step starts a requested computation (single transmission — the naive
// flaw) and terminates once every feedback arrived.
func (m *Naive) Step(env core.Env) bool {
	fired := false
	if m.Request == core.Wait {
		m.Request = core.In
		for q := 0; q < m.n; q++ {
			if q == int(m.self) {
				continue
			}
			m.Acked[q] = false
			env.Send(core.ProcID(q), core.Message{Instance: m.inst, Kind: KindNaiveBrd, B: m.BMes})
		}
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: m.inst, Note: m.BMes.String()})
		fired = true
	}
	if m.Request == core.In && m.allAcked() {
		m.Request = core.Done
		env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: m.inst, Note: m.BMes.String()})
		fired = true
	}
	return fired
}

func (m *Naive) allAcked() bool {
	for q := 0; q < m.n; q++ {
		if q != int(m.self) && !m.Acked[q] {
			return false
		}
	}
	return true
}

// Deliver accepts any broadcast (answering with the application feedback)
// and any feedback (no way to tell a stale one apart — the naive flaw).
func (m *Naive) Deliver(env core.Env, from core.ProcID, msg core.Message) {
	if from == m.self || from < 0 || int(from) >= m.n {
		return
	}
	switch msg.Kind {
	case KindNaiveBrd:
		env.Emit(core.Event{Kind: core.EvRecvBrd, Peer: from, Instance: m.inst, Msg: msg, Note: msg.B.String()})
		var f core.Payload
		if m.cb.OnBroadcast != nil {
			f = m.cb.OnBroadcast(env, from, msg.B)
		}
		env.Send(from, core.Message{Instance: m.inst, Kind: KindNaiveFck, F: f})
	case KindNaiveFck:
		if m.Request == core.In && !m.Acked[from] {
			m.Acked[from] = true
			env.Emit(core.Event{Kind: core.EvRecvFck, Peer: from, Instance: m.inst, Msg: msg, Note: msg.F.String()})
			if m.cb.OnFeedback != nil {
				m.cb.OnFeedback(env, from, msg.F)
			}
		}
	}
}

// AppendState appends a canonical encoding of the machine state.
func (m *Naive) AppendState(dst []byte) []byte {
	dst = append(dst, 'N', byte(m.Request))
	dst = core.AppendPayload(dst, m.BMes)
	for q := 0; q < m.n; q++ {
		if q == int(m.self) {
			continue
		}
		b := byte(0)
		if m.Acked[q] {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

// Corrupt overwrites the variables with random domain values.
func (m *Naive) Corrupt(r core.Rand) {
	m.Request = core.ReqState(r.Intn(core.NumReqStates))
	m.BMes = pif.GarbagePayload(r)
	for q := 0; q < m.n; q++ {
		if q == int(m.self) {
			continue
		}
		m.Acked[q] = r.Bool()
	}
}
