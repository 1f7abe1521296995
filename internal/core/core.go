// Package core defines the computation model of the paper (§2): processes
// are deterministic machines executing guarded actions atomically, and
// communicating by exchanging messages over per-pair channels.
//
// A protocol stack on one process is a list of Machines executed in "text
// order" (the paper: "when several actions are simultaneously enabled at a
// process p, all these actions are sequentially executed following the
// order of their appearance in the text of the protocol"). Machines send
// and receive Messages through an Env provided by the execution substrate
// (deterministic simulator, goroutine runtime, or UDP transport), so the
// same protocol code runs unchanged on all three.
package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strconv"
)

// ProcID identifies a process; processes are numbered 0..n-1.
type ProcID int

// ReqState is the paper's Request variable: the interface between a
// protocol and the external application requesting its service.
type ReqState uint8

// Request states, in the order Wait -> In -> Done.
const (
	// Wait means the application has requested a computation that has not
	// started yet.
	Wait ReqState = iota
	// In means a computation is in progress.
	In
	// Done means no computation is requested or in progress. (It is also
	// the decision point of the previous computation.)
	Done
)

// NumReqStates is the size of the ReqState domain, used by corruption and
// state enumeration.
const NumReqStates = 3

// String returns the paper's name for the state.
func (r ReqState) String() string {
	if r < NumReqStates {
		return [NumReqStates]string{Wait: "Wait", In: "In", Done: "Done"}[r]
	}
	return "ReqState(" + strconv.Itoa(int(r)) + ")"
}

// MaxBlobLen bounds a payload body everywhere — the authoritative limit
// the wire format enforces per datagram (internal/wire re-exports it).
const MaxBlobLen = 16 << 10

// Payload is a message-value: the application-level data carried in the
// broadcast and feedback fields of a message. The structured fields (Tag,
// Num) are what the paper-facing protocols and experiments manipulate;
// Blob is an opaque application body carried verbatim through the
// handshake machines for typed application payloads (the façade's codec
// layer marshals arbitrary Go values into it). The protocols never
// inspect Blob — to them it is data to propagate, exactly like the
// message-switched forwarding model where the carried datum is opaque
// bytes.
//
// Payload is no longer comparable with == (Blob is a slice); use Equal.
// Blob contents are immutable by convention: every layer that "changes" a
// blob (codecs, the fault plane's corruption policy) replaces the slice,
// never writes through it, so in-flight copies may safely alias one
// backing array.
type Payload struct {
	// Tag names the datum kind ("IDL", "ASK", "YES", garbage tags, ...).
	Tag string
	// Num carries a numeric argument (an identifier, an age, ...).
	Num int64
	// Blob is the opaque application body; nil and empty are equivalent
	// (both mean "no body") and encode identically everywhere.
	Blob []byte
}

// Equal reports whether two payloads carry the same value. A nil and an
// empty Blob are equal.
func (p Payload) Equal(o Payload) bool {
	return p.Tag == o.Tag && p.Num == o.Num && bytes.Equal(p.Blob, o.Blob)
}

// IsZero reports whether p is the zero payload (no tag, no number, no
// body).
func (p Payload) IsZero() bool {
	return p.Tag == "" && p.Num == 0 && len(p.Blob) == 0
}

// String renders the payload compactly for traces. Payloads without a
// body render exactly as in earlier revisions, keeping legacy event
// traces byte-identical; a body adds its length and a short prefix.
func (p Payload) String() string {
	s := p.Tag
	if p.Num != 0 {
		s = p.Tag + "(" + strconv.FormatInt(p.Num, 10) + ")"
	}
	if n := len(p.Blob); n > 0 {
		prefix := p.Blob
		if n > 8 {
			prefix = prefix[:8]
		}
		s += "+blob[" + strconv.Itoa(n) + "]" + hex.EncodeToString(prefix)
	}
	return s
}

// Message is the wire unit exchanged by processes:
// <message-type, message-values...> in the paper's notation. All protocols
// in this repository (the PIF family and the baselines) fit one flat shape,
// which keeps encoding, hashing, and garbage generation uniform. Like
// Payload, Message is not comparable with ==; use Equal or IsZero.
type Message struct {
	// Instance routes the message to one protocol instance on the
	// destination process (e.g. "me/idl/pif"); composed stacks multiplex
	// several instances over each physical link.
	Instance string
	// Kind is the paper's message-type field (e.g. "PIF").
	Kind string
	// B is the broadcast value (B-Mes of the sender).
	B Payload
	// F is the feedback value (F-Mes[dest] of the sender).
	F Payload
	// State is the sender's handshake flag for this destination
	// (State_p[q] in Algorithm 1).
	State uint8
	// Echo is the last flag value the sender received from the
	// destination (NeigState_p[q] in Algorithm 1).
	Echo uint8
}

// String renders the message compactly for traces.
func (m Message) String() string {
	return fmt.Sprintf("<%s|%s B=%s F=%s s=%d e=%d>", m.Instance, m.Kind, m.B, m.F, m.State, m.Echo)
}

// Equal reports whether two messages carry the same fields and values.
func (m Message) Equal(o Message) bool {
	return m.Instance == o.Instance && m.Kind == o.Kind &&
		m.State == o.State && m.Echo == o.Echo &&
		m.B.Equal(o.B) && m.F.Equal(o.F)
}

// IsZero reports whether m is the zero message.
func (m Message) IsZero() bool {
	return m.Instance == "" && m.Kind == "" && m.State == 0 && m.Echo == 0 &&
		m.B.IsZero() && m.F.IsZero()
}

// Env is the world a machine acts on during one atomic action: it can send
// messages and emit observable events. Substrates provide implementations.
type Env interface {
	// Self returns the identity of the process executing the action.
	Self() ProcID
	// N returns the number of processes in the system.
	N() int
	// Send transmits m to process `to` over the sender's outgoing channel.
	// The message may be lost (full channel, lossy link); Send never
	// blocks and reports nothing, exactly as in the model.
	Send(to ProcID, m Message)
	// Emit records an observable event (protocol starts, decisions,
	// receive-brd/receive-fck events, critical-section entry/exit).
	// Specification checkers subscribe to these events.
	Emit(e Event)
}

// Machine is one protocol instance on one process: a set of guarded
// actions over local state.
type Machine interface {
	// Instance returns the instance ID this machine sends and receives
	// on. Instance IDs are unique within a process's stack.
	Instance() string
	// Step executes every enabled internal (non-receive) action once, in
	// text order, and reports whether any action fired. The substrate
	// calls Step atomically.
	Step(env Env) bool
	// Deliver executes the receive action for message m arriving from
	// process `from`. The substrate calls Deliver atomically.
	Deliver(env Env, from ProcID, m Message)
}

// Snapshotter is implemented by machines whose full local state can be
// canonically encoded; the model checker and the configuration hash
// require it.
type Snapshotter interface {
	// AppendState appends a canonical encoding of the machine's complete
	// local state to dst and returns the extended slice.
	AppendState(dst []byte) []byte
}

// Corruptible is implemented by machines that can randomize their own
// local state uniformly over its domain, realizing the arbitrary initial
// configurations of the model (I = C). The source of randomness is
// provided by the caller so corruption is reproducible.
type Corruptible interface {
	// Corrupt overwrites the machine's state with values drawn from r.
	// The parameter is an rng.Source-compatible generator; it is typed
	// loosely here to keep core free of the rng dependency direction.
	Corrupt(r Rand)
}

// Garbler is implemented by machines whose instance has channels: it
// draws one well-formed message of the machine's own protocol over the
// fields' declared domains, the garbage an arbitrary initial
// configuration may leave in any channel of that instance (§2).
type Garbler interface {
	// Garbage returns a random message of the machine's instance, drawn
	// from r.
	Garbage(r Rand) Message
}

// Rand is the minimal random interface machines need for corruption (and
// randomized baselines).
type Rand interface {
	Intn(n int) int
	Uint64() uint64
	Float64() float64
	Bool() bool
}

// Stack is a full protocol stack for one process: the machines in text
// order, first to last. Substrates step machines in this order and route
// deliveries by instance ID.
type Stack []Machine

// Step runs every machine's internal actions once, in text order.
func (s Stack) Step(env Env) {
	for _, mach := range s {
		mach.Step(env)
	}
}

// ByInstance builds the delivery routing table. It panics on duplicate
// instance IDs, which indicate a mis-assembled stack.
func (s Stack) ByInstance() map[string]Machine {
	m := make(map[string]Machine, len(s))
	for _, mach := range s {
		id := mach.Instance()
		if _, dup := m[id]; dup {
			panic("core: duplicate machine instance " + id)
		}
		m[id] = mach
	}
	return m
}

// AppendState appends the canonical encoding of every machine in the stack.
// Machines that do not implement Snapshotter contribute nothing.
func (s Stack) AppendState(dst []byte) []byte {
	for _, mach := range s {
		if sn, ok := mach.(Snapshotter); ok {
			dst = append(dst, 0x1f) // unit separator between machines
			dst = sn.AppendState(dst)
		}
	}
	return dst
}

// Corrupt randomizes the state of every corruptible machine in the stack.
func (s Stack) Corrupt(r Rand) {
	for _, mach := range s {
		if c, ok := mach.(Corruptible); ok {
			c.Corrupt(r)
		}
	}
}
