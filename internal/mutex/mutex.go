// Package mutex implements Protocol ME (Algorithm 3 of the paper): the
// snap-stabilizing mutual exclusion protocol for fully-connected
// message-passing systems with known channel capacity.
//
// # Structure
//
// The process with the smallest identifier (the leader) owns a pointer
// variable Value designating the process currently allowed to enter the
// critical section: Value = 0 favours the leader itself, Value = k favours
// the process on its local channel k. Every process loops forever through
// five phases:
//
//	Phase 0 (A0): launch an IDs-Learning computation; take a pending
//	              external request into account (Request: Wait -> In).
//	Phase 1 (A1): when IDL terminates (leader and ID table now known),
//	              broadcast ASK via PIF.
//	Phase 2 (A2): when the ASK-PIF terminates, the feedbacks fill
//	              Privileges[]; a Winner broadcasts EXIT, forcing every
//	              other process back to Phase 0.
//	Phase 3 (A3): when the EXIT-PIF terminates, a Winner executes the
//	              critical section if requested, then releases: the leader
//	              advances Value itself, a non-leader broadcasts EXITCS
//	              (the leader advances Value on receiving it, A7).
//	Phase 4 (A4): when the EXITCS-PIF terminates, return to Phase 0.
//
// # Deviations from the paper's presentation (documented in DESIGN.md)
//
//   - Value arithmetic: the paper declares Value_p ∈ {0..n-1} but writes
//     the increment "mod (n+1)" — mutually inconsistent; we cycle mod n,
//     the only reading under which the leader round-robins over all n
//     candidates (itself plus n-1 channels), as Lemma 11's fairness
//     argument requires.
//   - Durational critical section: the paper's A3 executes <CS> inside one
//     atomic action, under which two processes can never be observed in
//     the critical section simultaneously and Specification 3 would be
//     vacuously checkable. We give the critical section a configurable
//     duration in activations (WithCSLength); entry/exit emit events the
//     specification checker consumes. An arbitrary initial configuration
//     may place a process inside the critical section (a "zombie",
//     footnote 1 of the paper): corruption generates those too.
package mutex

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/pif"
)

// Payload tags on the wire.
const (
	// TagAsk asks the system who is favoured (broadcast, phase 1).
	TagAsk = "ASK"
	// TagExit forces every other process back to phase 0 (broadcast,
	// phase 2).
	TagExit = "EXIT"
	// TagExitCS notifies the leader that the critical section was
	// released (broadcast, phase 3).
	TagExitCS = "EXITCS"
	// TagYes is the feedback granting the privilege.
	TagYes = "YES"
	// TagNo is the feedback denying the privilege.
	TagNo = "NO"
	// TagOK is the neutral acknowledgment feedback.
	TagOK = "OK"
)

// Option configures an ME machine.
type Option func(*ME)

// WithCSLength sets how many activations the critical section occupies
// (default 2). Zero makes entry and exit coincide in one atomic action,
// the paper's presentation.
func WithCSLength(k int) Option {
	return func(m *ME) {
		if k < 0 {
			panic(fmt.Sprintf("mutex: invalid CS length %d", k))
		}
		m.csLen = k
	}
}

// WithPIFOptions forwards options (e.g. the capacity bound) to both child
// PIF instances.
func WithPIFOptions(opts ...pif.Option) Option {
	return func(m *ME) { m.pifOpts = opts }
}

// ME is one process's instance of Protocol ME.
type ME struct {
	// Client holds Request, which drives critical-section requests, and
	// PIF, the child broadcast machine for ASK/EXIT/EXITCS (instance
	// inst+"/pif").
	pif.Client
	self    core.ProcID
	n       int
	id      int64
	csLen   int
	pifOpts []pif.Option

	// Phase is the five-phase loop counter.
	Phase uint8
	// Value designates the favoured process (meaningful at the leader):
	// 0 = self, k = local channel k.
	Value int
	// Privileges[q] records whether q's last ASK feedback was YES.
	Privileges []bool
	// InCS is the durational critical-section occupancy flag.
	InCS bool
	// CSLeft counts the remaining critical-section activations.
	CSLeft int
	// Served records whether the current occupancy serves a computation
	// (so release actions run at exit); an initial-configuration occupant
	// may have it either way.
	Served bool

	// IDL is the child IDs-Learning machine (instance inst+"/idl").
	IDL *idl.IDL

	// requested tracks a live external request. It is harness
	// instrumentation (ground truth for the checker), not protocol state:
	// corruption does not touch it.
	requested bool

	// CSBody, when non-nil, runs inside the critical section at entry.
	CSBody func()
}

var (
	_ core.Machine     = (*ME)(nil)
	_ core.Snapshotter = (*ME)(nil)
	_ core.Corruptible = (*ME)(nil)
)

// New returns an ME machine for process self with identifier id. Identifiers
// must be distinct across processes; the smallest one is the leader.
func New(inst string, self core.ProcID, n int, id int64, opts ...Option) *ME {
	m := &ME{self: self, n: n, id: id, csLen: 2, Privileges: make([]bool, n)}
	for _, opt := range opts {
		opt(m)
	}
	m.IDL = idl.New(inst+"/idl", self, n, id, m.pifOpts...)
	m.Client = pif.NewClient(inst, self, n, pif.Callbacks{
		OnBroadcast: m.onBroadcast,
		OnFeedback:  m.onFeedback,
	}, m.pifOpts...)
	return m
}

// Machines returns the full stack fragment in text order: ME, IDL, IDL's
// PIF, ME's PIF.
func (m *ME) Machines() core.Stack {
	return append(core.Stack{m}, append(m.IDL.Machines(), m.PIF)...)
}

// ID returns the process's constant identifier.
func (m *ME) ID() int64 { return m.id }

// localNum returns the local channel number of process q at this process:
// a bijection {peers} -> {1..n-1}, with 0 reserved for "self".
func (m *ME) localNum(q core.ProcID) int {
	return (int(q) - int(m.self) + m.n) % m.n
}

// Invoke submits an external request for the critical section. It reports
// false, without effect, while a request is pending or being served.
func (m *ME) Invoke(env core.Env) bool {
	if !m.Client.Invoke(env) {
		return false
	}
	m.requested = true
	return true
}

// Requested reports whether an external request is pending or being served
// (instrumentation; see the requested field).
func (m *ME) Requested() bool { return m.requested }

// Winner implements the paper's predicate: p may enter the critical
// section iff it is the leader favouring itself, or some feedback YES came
// from the process it learned to be the leader.
func (m *ME) Winner() bool {
	if m.IDL.MinID == m.id && m.Value == 0 {
		return true
	}
	for q := 0; q < m.n; q++ {
		if q == int(m.self) {
			continue
		}
		if m.Privileges[q] && m.IDL.IDTab[q] == m.IDL.MinID {
			return true
		}
	}
	return false
}

// release is the post-critical-section half of A3: the leader advances
// Value directly; anyone else notifies the leader with an EXITCS
// broadcast.
func (m *ME) release() {
	if m.IDL.MinID == m.id {
		m.Value = 1
	} else {
		m.PIF.Reset(core.Payload{Tag: TagExitCS})
	}
}

// Step runs the internal actions in text order: the critical-section
// occupancy action, then A0..A4.
func (m *ME) Step(env core.Env) bool {
	fired := false

	// Critical-section occupancy: a process inside the critical section
	// stays there for CSLeft further activations, then exits. Exit of a
	// serving occupancy completes the request (Request <- Done) and runs
	// the release half of A3.
	if m.InCS {
		if m.CSLeft > 0 {
			m.CSLeft--
			return true
		}
		m.InCS = false
		env.Emit(core.Event{Kind: core.EvExitCS, Peer: -1, Instance: m.Instance()})
		if m.Served {
			m.Served = false
			if m.Request == core.In {
				m.Request = core.Done
				m.requested = false
				env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: m.Instance()})
			}
			m.release()
			if m.Phase == 3 {
				m.Phase = 4
			}
		}
		return true
	}

	// A0 :: Phase = 0 -> launch IDL; take a pending request into account.
	if m.Phase == 0 {
		m.IDL.Reset()
		if m.Request == core.Wait {
			m.Request = core.In
			env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: m.Instance()})
		}
		m.Phase = 1
		fired = true
	}

	// A1 :: Phase = 1 and IDL.Request = Done -> broadcast ASK.
	if m.Phase == 1 && m.IDL.Done() {
		m.PIF.Reset(core.Payload{Tag: TagAsk})
		m.Phase = 2
		fired = true
	}

	// A2 :: Phase = 2 and PIF.Request = Done -> a winner broadcasts EXIT.
	if m.Phase == 2 && m.PIF.Done() {
		if m.Winner() {
			m.PIF.Reset(core.Payload{Tag: TagExit})
		}
		m.Phase = 3
		fired = true
	}

	// A3 :: Phase = 3 and PIF.Request = Done -> a winner executes the
	// critical section (if requested), then releases.
	if m.Phase == 3 && m.PIF.Done() && !m.InCS {
		if m.Winner() {
			if m.Request == core.In {
				note := ""
				if m.requested {
					note = core.NoteRequested
				}
				m.InCS = true
				m.Served = true
				m.CSLeft = m.csLen
				env.Emit(core.Event{Kind: core.EvEnterCS, Peer: -1, Instance: m.Instance(), Note: note})
				if m.CSBody != nil && m.requested {
					// The body is the work of the external request; an
					// entry fabricated by a corrupted Request = In
					// (footnote 1) has no application work attached.
					m.CSBody()
				}
				// The occupancy action takes over; Phase advances at exit.
				return true
			}
			m.release()
		}
		m.Phase = 4
		fired = true
	}

	// A4 :: Phase = 4 and PIF.Request = Done -> back to Phase 0.
	if m.Phase == 4 && m.PIF.Done() {
		m.Phase = 0
		fired = true
	}

	return fired
}

// onBroadcast implements the receive-brd actions A5 (ASK), A6 (EXIT), and
// A7 (EXITCS).
func (m *ME) onBroadcast(env core.Env, from core.ProcID, b core.Payload) core.Payload {
	switch b.Tag {
	case TagAsk:
		// A5: answer YES iff the sender is the favoured process.
		if m.Value == m.localNum(from) {
			return core.Payload{Tag: TagYes}
		}
		return core.Payload{Tag: TagNo}
	case TagExit:
		// A6: restart the phase loop.
		m.Phase = 0
		return core.Payload{Tag: TagOK}
	case TagExitCS:
		// A7: the favoured process released; advance the rotation.
		if m.Value == m.localNum(from) {
			m.Value = (m.Value + 1) % m.n
		}
		return core.Payload{Tag: TagOK}
	default:
		// Garbage broadcast from the initial configuration.
		return core.Payload{Tag: TagOK}
	}
}

// onFeedback implements the receive-fck actions A8 (YES), A9 (NO), and
// A10 (OK).
func (m *ME) onFeedback(_ core.Env, from core.ProcID, f core.Payload) {
	switch f.Tag {
	case TagYes:
		m.Privileges[from] = true
	case TagNo:
		m.Privileges[from] = false
	}
	// A10 (OK) and garbage: do nothing.
}

// AppendState appends a canonical encoding of the machine state (children
// encode themselves separately as part of the stack).
func (m *ME) AppendState(dst []byte) []byte {
	dst = append(dst, 'M', byte(m.Request), m.Phase, byte(m.Value))
	flags := byte(0)
	if m.InCS {
		flags |= 1
	}
	if m.Served {
		flags |= 2
	}
	dst = append(dst, flags, byte(m.CSLeft))
	for q := 0; q < m.n; q++ {
		if q == int(m.self) {
			continue
		}
		b := byte(0)
		if m.Privileges[q] {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

// Corrupt overwrites every protocol variable with random values from its
// domain, including possibly placing the process inside the critical
// section (footnote 1's zombie). Children corrupt themselves separately
// as part of the stack; the instrumentation field requested is ground
// truth and survives.
func (m *ME) Corrupt(r core.Rand) {
	m.Request = core.ReqState(r.Intn(core.NumReqStates))
	m.Phase = uint8(r.Intn(5))
	m.Value = r.Intn(m.n)
	for q := 0; q < m.n; q++ {
		if q == int(m.self) {
			continue
		}
		m.Privileges[q] = r.Bool()
	}
	m.InCS = r.Intn(4) == 0
	if m.InCS {
		m.CSLeft = r.Intn(m.csLen + 1)
		m.Served = r.Bool()
	} else {
		m.CSLeft = 0
		m.Served = false
	}
}
