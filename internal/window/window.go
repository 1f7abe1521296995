// Package window enforces the paper's known channel-capacity bound on a
// real network link: at most c messages are ever in flight from one
// endpoint to the other, where "in flight" runs from the sender's
// env.Send until the receiver hands the message to Deliver or drops it.
// It is the socket substrates' counterpart of the in-memory runtime's
// per-link inflight counter, with the one difference a network forces:
// the sender cannot see the receiver's consumption, so the receiver
// says so.
//
// # The state machine
//
// A Link is one endpoint's view of one bidirectional (peer, group,
// instance) link. Its sender half numbers every admitted message with a
// per-link sequence and keeps the contiguous range base..next-1 of
// sequences it may not yet reuse; Admit refuses once that range holds c.
// Its receiver half remembers the last sequence the peer reported sent
// (hi), how many of the peer's messages sit unconsumed in this
// endpoint's pipeline (occupied), and the last sequence it knows
// consumed (done). Every frame in either direction carries a Header:
// Seq, the sender half's last sequence, and Ack, the receiver half's
// done. An Ack that names an outstanding sequence releases it and
// everything before it; an Ack that names none is ignored, which is
// what makes a restarted peer's stale state harmless.
//
// done advances only when the pipeline is empty (done = hi at
// occupied = 0). Under the per-link FIFO the paper's model assumes, an
// empty pipeline after seeing Seq = s proves every message numbered
// <= s was consumed or lost, whatever order a fault plane's holdback
// released them in; the rule needs no per-message identity, so it
// survives duplication, reordering and delay at the mailbox boundary.
// A held message counts in the pipeline, so it keeps done, and with it
// the sender's window, where they are. The engine therefore shows the
// fault plane every header that carried no message — a probe or an
// echo — as traffic on its link (core.Injector.Traffic). Otherwise a
// reorder holdback that keeps the window shut would wait for data the
// shut window refuses to send.
//
// Two control frames keep the link live. An echo that has waited a
// full tick without data to ride on leaves as an echo-only frame
// (Tick). A sender refused at a shut window emits a probe — an empty,
// sequence-stamped header through the same FIFO as data — with every
// refusal, and the receiver answers it as soon as it reads it (Probed).
// Consuming the probe proves everything before it was consumed or lost,
// so a lost echo, a partition or a restarted peer cannot wedge the link.
// Arrive reports the acknowledgment that reopens a window which refused
// a send, so the transport can send again at once instead of at a
// deadline.
//
// The package is pure and clock-free: Tick is called by the transports'
// step timer, which keeps ticking while Owes says a control frame may yet
// be due, the initial sequence is chosen by the caller, and nothing
// here reads a clock or a random source, so internal/check can drive it
// exhaustively (snapvet's determinism analyzer covers it).
package window

import "fmt"

// MaxCapacity is the largest bound a protocol stack can be built for:
// the handshake flag domain {0..2c+2} must fit the wire format's
// one-byte flag fields.
const MaxCapacity = 126

// Header is what one frame says about one link, in the direction the
// frame travels.
type Header struct {
	// Seq is the last sequence the frame's sender has assigned on this
	// link, data in this frame included.
	Seq uint64
	// Ack is the last sequence the frame's sender knows consumed on the
	// reverse direction.
	Ack uint64
	// Probe asks the receiver to answer with its Ack.
	Probe bool
}

// Link is one endpoint of one bidirectional link. The zero value is
// unusable; build one with NewLink. It is not goroutine-safe (the
// socket engine keeps it in its per-channel record, under the node's
// mailbox lock) and is a comparable value, so a model checker can use it
// as part of a map key.
type Link struct {
	c int

	// Sender half: sequences base..next-1 are outstanding.
	base, next uint64
	peak       int
	blocked    bool // a send was refused since the window last reopened

	// Receiver half.
	hi       uint64 // last sequence the peer reported sent
	occupied int    // peer's messages arrived here, not yet consumed
	done     uint64 // last sequence known consumed: the Ack we send
	echoed   uint64 // the Ack most recently put on the wire
	probed   bool   // the peer probed; answer with the next Stamp
	aged     bool   // an echo has already waited one tick
}

// NewLink returns a link with window c whose first admitted message is
// numbered first (>= 1; 0 is reserved for "nothing yet").
func NewLink(c int, first uint64) Link {
	if c < 1 || first < 1 {
		panic(fmt.Sprintf("window: NewLink(%d, %d)", c, first))
	}
	return Link{c: c, base: first, next: first}
}

// Admit reserves a slot for one outbound message, numbering it
// implicitly with the next sequence. It returns false when c messages
// are already in flight: the send is lost at the sender, and the
// transport sends a probe (Stamp(true)) with the refusal. A base past
// next (a corrupted state) is nothing outstanding, so no state admits
// more than c.
func (l *Link) Admit() bool {
	l.base = min(l.base, l.next)
	if l.InFlight() >= l.c {
		l.blocked = true
		return false
	}
	l.next++
	if n := l.InFlight(); n > l.peak {
		l.peak = n
	}
	return true
}

// Cancel takes back the most recent Admit: the message never entered
// the link (it could not be encoded or queued). Call it only before
// anything else touches the link.
func (l *Link) Cancel() {
	if l.next > l.base {
		l.next--
	}
}

// Corrupt puts the sender half in an arbitrary state, as a transient
// fault may leave it: sequences base..next-1 outstanding, or nothing
// outstanding and base past next. Admit starts over from any of them
// with at most c in flight.
func (l *Link) Corrupt(base, next uint64) { l.base, l.next = base, next }

// InFlight returns how many admitted messages are not yet released.
func (l *Link) InFlight() int { return int(l.next - l.base) }

// Peak returns the largest InFlight ever observed.
func (l *Link) Peak() int { return l.peak }

// Occupied returns how many of the peer's messages sit in this
// endpoint's pipeline.
func (l *Link) Occupied() int { return l.occupied }

// Stamp returns the header for a frame about to leave on this link and
// records that the current acknowledgment is on the wire.
func (l *Link) Stamp(probe bool) Header {
	l.echoed = l.done
	l.aged = false
	l.probed = false
	return Header{Seq: l.next - 1, Ack: l.done, Probe: probe}
}

// Arrive processes the header of a frame that carried n messages for
// this link: the acknowledgment releases what it names, the sequence
// and the messages enter the receiver half. It reports how many
// outstanding messages the acknowledgment released, and whether it
// reopened a window that refused a send while shut: the refused message
// may leave now.
func (l *Link) Arrive(h Header, n int) (released int, reopened bool) {
	if h.Ack >= l.base && h.Ack < l.next {
		released = int(h.Ack + 1 - l.base)
		l.base = h.Ack + 1
		reopened, l.blocked = l.blocked, false
	}
	l.hi = h.Seq
	if h.Probe {
		l.probed = true
	}
	l.Occupy(n)
	return released, reopened
}

// Occupy adjusts the pipeline occupancy by d: negative when messages
// are handed to Deliver or dropped, positive when a fault plane
// duplicates one. An empty pipeline advances the acknowledgment.
func (l *Link) Occupy(d int) {
	l.occupied += d
	if l.occupied <= 0 {
		l.occupied = 0
		l.done = l.hi
	}
}

// Probed reports whether the peer probed and no header has answered it
// yet.
func (l *Link) Probed() bool { return l.probed }

// Owes reports, changing nothing, whether a Tick now or later would ask
// for an echo with no further input: the transport keeps ticking.
func (l *Link) Owes() bool { return l.probed || l.done != l.echoed }

// Tick is the timer edge. It reports whether an echo is due now — an
// acknowledgment that found no data to ride on for a full tick, or a
// probe no header has answered — which the transport stamps
// (Stamp(false)) and sends, with no data if it has none.
func (l *Link) Tick() bool {
	if l.probed {
		return true
	}
	if l.done != l.echoed {
		if l.aged {
			return true
		}
		l.aged = true
	}
	return false
}
