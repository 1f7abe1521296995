// Package window is the one home of a link end: what one endpoint of
// one bidirectional (peer, group, instance) link keeps and decides on
// runtime, udp and tcp (DESIGN.md §7). Link, this file, is the window
// that enforces the paper's known capacity bound: at most c messages in
// flight from one endpoint to the other, from the sender's env.Send
// until the receiver hands the message to Deliver or drops it. The
// sender cannot see that consumption, so the receiver says so. end.go
// holds Out, the link's last message and its repeat deadline, and End,
// the two as the engine keeps them.
//
// Link's sender half numbers every admitted message with a per-link
// sequence and keeps the contiguous range base..next-1 of sequences it
// may not yet reuse; Admit refuses once that range holds c. Its receiver
// half remembers the last sequence the peer reported sent (hi), how many
// of the peer's messages sit unconsumed in this endpoint's pipeline
// (occupied), and the last sequence it knows consumed (done). Every
// frame carries a Header per link: Seq, the sender half's last sequence,
// and Ack, the receiver half's done. An Ack that names an outstanding
// sequence releases it and everything before it; one that names none is
// ignored, which makes a restarted peer's stale state harmless.
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
// echo — as traffic on its link (core.Injector.Traffic); otherwise a
// reorder holdback that keeps the window shut would wait for data the
// shut window refuses to send.
//
// A shut window costs one turnaround. A refused send probes (the next
// Stamp asks the peer to answer); a header that probes, or whose
// acknowledgment reopens a window that refused a send, owes a drain
// (Arrive); the drain answers (Answer) with the link's header, and makes
// the refused message due at once unless an admission superseded it.
// Consuming the probe proves everything before it consumed or lost, so
// a lost echo, a partition or a restarted peer cannot wedge the link.
// The timer edge (Tick) is the fallback: an echo that waited a full tick
// with no data to ride on leaves alone, and so does the answer to a
// probe that arrived while nothing could drain.
//
// The package is clock-free: the engine passes its clock's readings in
// and calls Tick while Owes says a control frame may yet be due, the
// caller chooses the initial sequence, and nothing here reads a clock or
// a random source, so internal/check drives Link exhaustively (snapvet's
// determinism analyzer covers the package).
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

// Link is one endpoint's window on one bidirectional link. The zero
// value is unusable; build one with NewLink. It is not goroutine-safe
// (the engine keeps it in its per-channel End, under the node's mailbox
// lock) and is a comparable value, so a model checker can use it as part
// of a map key.
type Link struct {
	c int

	// Sender half: sequences base..next-1 are outstanding.
	base, next uint64
	peak       int
	blocked    bool // a send was refused since the window last reopened
	probing    bool // a send was refused: the next Stamp probes
	reopened   bool // an acknowledgment reopened the window after a refusal; nothing left or answered since

	// The admitted sends minus those acknowledgments released, and its
	// peak: the capacity bound counted from Admit's verdicts and Arrive's
	// releases alone, beside base and next, so that core.CheckWindows
	// sees a breach the sequence arithmetic hides.
	outstanding, peakOutstanding int

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
// are already in flight: the send is lost at the sender, and the link's
// next Stamp probes. A base past next (a corrupted state) is nothing
// outstanding, so no state admits more than c. A message admitted
// supersedes whatever the window refused before: nothing refused is
// owed a repeat any more.
func (l *Link) Admit() bool {
	l.base = min(l.base, l.next)
	if l.InFlight() >= l.c {
		l.blocked, l.probing = true, true
		return false
	}
	l.next++
	l.peak = max(l.peak, l.InFlight())
	l.reopened = false
	l.outstanding++
	l.peakOutstanding = max(l.peakOutstanding, l.outstanding)
	return true
}

// Cancel takes back the most recent Admit: the message never entered
// the link (it could not be encoded or queued). Call it only before
// anything else touches the link.
func (l *Link) Cancel() {
	if l.next > l.base {
		l.next--
	}
	l.outstanding--
}

// Corrupt puts the sender half in an arbitrary state, as a transient
// fault may leave it: sequences base..next-1 outstanding, or nothing
// outstanding and base past next. Admit starts over from any of them
// with at most c in flight.
func (l *Link) Corrupt(base, next uint64) { l.base, l.next = base, next }

// InFlight returns how many admitted messages are not yet released.
func (l *Link) InFlight() int { return int(l.next - l.base) }

// Occupied returns how many of the peer's messages sit in this
// endpoint's pipeline.
func (l *Link) Occupied() int { return l.occupied }

// Stamp returns the header for a frame about to leave on this link —
// probing if a send was refused since the last one — and records that
// the current acknowledgment is on the wire, which answers a probe.
func (l *Link) Stamp() Header {
	h := Header{Seq: l.next - 1, Ack: l.done, Probe: l.probing}
	l.echoed, l.aged, l.probed, l.probing = l.done, false, false, false
	return h
}

// Arrive processes the header of a frame that carried n messages for
// this link: the acknowledgment releases what it names, the sequence
// and the messages enter the receiver half. It reports how many
// outstanding messages the acknowledgment released, and whether the
// link owes a drain: the header probes, or an acknowledgment reopened a
// window that refused a send and no drain has answered that yet.
func (l *Link) Arrive(h Header, n int) (released int, owed bool) {
	if h.Ack >= l.base && h.Ack < l.next {
		released = int(h.Ack + 1 - l.base)
		l.base = h.Ack + 1
		l.reopened, l.blocked = l.reopened || l.blocked, false
	}
	// A corrupted window may release what was never sent.
	l.outstanding = max(0, l.outstanding-released)
	l.hi = h.Seq
	if h.Probe {
		l.probed = true
	}
	l.Occupy(n)
	return released, h.Probe || l.reopened
}

// Answer is the drain's rule, for a link whose header owed one: the
// link's header leaves now if the peer probed and no header has answered
// it yet, and the message a refusal held back is due now if an
// acknowledgment reopened the window since and nothing left or answered
// after it. It clears the reopening; the header's Stamp clears the
// probe.
func (l *Link) Answer() (header, repeat bool) {
	header, repeat = l.probed, l.reopened
	l.reopened = false
	return header, repeat
}

// Reopened reports whether an acknowledgment reopened the window after a
// refusal and nothing has left or answered since.
func (l *Link) Reopened() bool { return l.reopened }

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
// probe no header has answered — which the transport stamps and sends,
// with no data if it has none.
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
