package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// EventKind classifies observable events. Specification checkers are
// written entirely against the event stream, so the set below is the
// observation vocabulary of the whole repository.
type EventKind uint8

// Event kinds. Scheduler-level kinds (send/deliver/lose/activate) describe
// the execution; protocol-level kinds mark the actions the specifications
// of the paper talk about.
const (
	// EvSend: a process pushed a message into a channel.
	EvSend EventKind = iota + 1
	// EvSendLost: the message was lost at the SENDER, before it entered
	// the channel — a full bounded channel (sim, runtime), a socket
	// write failure (udp), or, on tcp, a missing topology edge, a full
	// writer queue, or a dead connection under retransmission. Proc is
	// the sender, Peer the intended destination.
	EvSendLost
	// EvDeliver: a message was removed from a channel and handed to the
	// destination's receive action.
	EvDeliver
	// EvLose: an in-transit message was dropped at the RECEIVER — by the
	// adversary/lossy link (sim, runtime), the fault injector (udp,
	// tcp), or a full receive mailbox under the model's lose-on-full
	// rule (udp, tcp). Proc is the receiver, Peer the original sender.
	// Observers can therefore attribute every loss to one side of the
	// channel.
	EvLose
	// EvStart: a protocol executed its starting action for an external
	// request (Request: Wait -> In).
	EvStart
	// EvDecide: a protocol terminated a computation (Request: In -> Done).
	EvDecide
	// EvRecvBrd: a "receive-brd<B> from q" event (PIF broadcast accepted).
	EvRecvBrd
	// EvRecvFck: a "receive-fck<F> from q" event (PIF feedback accepted).
	EvRecvFck
	// EvEnterCS: a process entered the critical section.
	EvEnterCS
	// EvExitCS: a process left the critical section.
	EvExitCS
	// EvRequest: the external application requested a service
	// (Request <- Wait).
	EvRequest
	// EvFwdDeliver: the forwarding protocol handed a routed item to the
	// application at its destination. Proc is the destination, Peer the
	// neighbor the item arrived from; Note carries the (src,dst,seq) key.
	EvFwdDeliver
	// EvFwdDiscard: the forwarding protocol sanitized an item out of the
	// network (invalid endpoints, backtracking route, or unroutable).
	// Discarding an item the spec checker has armed is a loss violation.
	EvFwdDiscard
)

// kindNames names every kind, indexed by it.
var kindNames = [...]string{
	EvSend:       "send",
	EvSendLost:   "send-lost",
	EvDeliver:    "deliver",
	EvLose:       "lose",
	EvStart:      "start",
	EvDecide:     "decide",
	EvRecvBrd:    "recv-brd",
	EvRecvFck:    "recv-fck",
	EvEnterCS:    "enter-cs",
	EvExitCS:     "exit-cs",
	EvRequest:    "request",
	EvFwdDeliver: "fwd-deliver",
	EvFwdDiscard: "fwd-discard",
}

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one observable occurrence in an execution. Proc is always the
// process at which the event happened; Peer is the other endpoint when the
// event involves a message or a remote process.
type Event struct {
	// Step is the global step index at which the event occurred, stamped
	// by the simulator; the concurrent engine has no global step (0).
	Step int
	// Kind classifies the event.
	Kind EventKind
	// Proc is the process at which the event occurred.
	Proc ProcID
	// Peer is the other endpoint, when meaningful (sender of a delivered
	// message, destination of a sent message); -1 otherwise.
	Peer ProcID
	// Instance is the protocol instance involved, when meaningful.
	Instance string
	// Msg is the message involved, when meaningful.
	Msg Message
	// Note carries free-form detail (e.g. which payload was decided on).
	Note string
}

// String renders the event on one line for traces and test failures.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%6d] p%d %s", e.Step, e.Proc, e.Kind)
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " peer=p%d", e.Peer)
	}
	if e.Instance != "" {
		fmt.Fprintf(&b, " inst=%s", e.Instance)
	}
	if !e.Msg.IsZero() {
		fmt.Fprintf(&b, " msg=%s", e.Msg)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// NoteRequested marks EvEnterCS events that serve an external request.
// The mutual exclusion guarantee of Specification 3 covers exactly those
// entries (paper, footnote 1); entries caused purely by the arbitrary
// initial configuration carry an empty note.
const NoteRequested = "requested"

// Observer consumes events as they occur. Implementations must be fast;
// they run inside the simulation loop. An observer never influences the
// execution it watches: a seed replays the same steps with any set of
// observers installed, or none. Every observer receives the protocol
// events; both engines send the four traffic kinds (EvSend, EvSendLost,
// EvDeliver, EvLose) only to observers that are not a ProtocolObserver.
type Observer interface {
	OnEvent(e Event)
}

// ProtocolObserver marks an Observer that ignores the traffic kinds and
// reads only protocol events. The simulator and the concurrent engine
// withhold send, send-lost, deliver and lose from it, and build no
// traffic event at all when every installed observer is one. The spec
// checkers implement it. An observer that reads any traffic kind must
// not.
type ProtocolObserver interface {
	Observer
	IgnoresTraffic()
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e Event)

// OnEvent calls f(e).
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Recorder is an Observer that retains the most recent events in a ring
// buffer, for debugging and for printing counter-example traces. The zero
// value retains nothing; use NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

var _ Observer = (*Recorder)(nil)

// NewRecorder returns a recorder retaining the last limit events.
func NewRecorder(limit int) *Recorder {
	if limit < 1 {
		limit = 1
	}
	return &Recorder{buf: make([]Event, 0, limit)}
}

// OnEvent records e, evicting the oldest event when full.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events observed (including evicted ones).
func (r *Recorder) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dump renders the retained events, one per line.
func (r *Recorder) Dump() string {
	events := r.Events()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MultiObserver fans events out to several observers.
type MultiObserver []Observer

// OnEvent forwards e to every observer.
func (m MultiObserver) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// PackRoute encodes a (source, destination) endpoint pair into one int64
// — the forwarding protocol's wire representation of an item's route,
// carried in Payload.Num fields and read back by its spec checker.
func PackRoute(src, dst ProcID) int64 {
	return int64(uint64(uint32(src))<<32 | uint64(uint32(dst)))
}

// UnpackRoute decodes a PackRoute value.
func UnpackRoute(v int64) (src, dst ProcID) {
	return ProcID(uint32(uint64(v) >> 32)), ProcID(uint32(uint64(v)))
}

// AppendPayload appends a canonical encoding of p to dst. Helper for
// Snapshotter implementations. The encoding is self-delimiting — tag
// length, tag, fixed-width number, uvarint blob length, blob — so
// concatenations of payloads (machine snapshots, configuration hashes)
// stay injective with bodies of any content.
func AppendPayload(dst []byte, p Payload) []byte {
	dst = append(dst, byte(len(p.Tag)))
	dst = append(dst, p.Tag...)
	for shift := 0; shift < 64; shift += 8 {
		dst = append(dst, byte(p.Num>>shift))
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Blob)))
	dst = append(dst, p.Blob...)
	return dst
}

// AppendMessage appends a canonical encoding of m to dst. Helper for
// configuration hashing.
func AppendMessage(dst []byte, m Message) []byte {
	dst = append(dst, byte(len(m.Instance)))
	dst = append(dst, m.Instance...)
	dst = append(dst, byte(len(m.Kind)))
	dst = append(dst, m.Kind...)
	dst = AppendPayload(dst, m.B)
	dst = AppendPayload(dst, m.F)
	dst = append(dst, m.State, m.Echo)
	return dst
}
