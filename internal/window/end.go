package window

import (
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// Out is the sender's record of one directed (peer, instance) link: the
// last message the link sent and its repeat deadline. Times are on the
// engine's clock. It stays apart from Link because a core.Message is not
// comparable, and internal/check keys its states by Link values.
type Out struct {
	last   core.Message
	used   bool          // last is valid
	left   bool          // last has been on the wire: saying it again is a repeat
	sentAt time.Duration // when last left, or a repeat of it was last tried
	rto    time.Duration // how long after sentAt a repeat comes due; 0: disarmed
}

// Pass applies the sending rule to m on path at time now and reports
// whether m leaves, and whether it leaves as a repeat of a message the
// link already put on the wire (left). A message that differs from the
// last one is new and always leaves. A repeat leaves only from the tick
// path, once now − sentAt ≥ rto; rto is step/2 after a new message and
// step after a repeat, so a lost message is tried again half a step
// after it left and a link that stays silent repeats once per step. A
// message the window refused every time it was said is not a repeat when
// it first leaves.
func (l *Out) Pass(path core.SendPath, m core.Message, now, step time.Duration) (send, repeat bool) {
	if path == core.PathAction || !l.used || !l.last.Equal(m) {
		l.last, l.used, l.left, l.sentAt, l.rto = m, true, false, now, step/2
		return true, false
	}
	if path != core.PathTick || now-l.sentAt < l.rto {
		return false, false
	}
	l.sentAt, l.rto = now, step
	return true, l.left
}

// Due reports when a repeat of the link's last message comes due, and
// whether the link is armed: whether a timer should wake for it.
func (l *Out) Due() (at time.Duration, armed bool) {
	return l.sentAt + l.rto, l.rto != 0
}

// Rearm is the step tick's look at the link, after the tick's frames
// left: a deadline that passed without a repeat disarms the link, whose
// last message is no longer what its stack says (a tick path that says
// it again still finds it due), and an armed link reports the deadline
// the timer wakes for.
func (l *Out) Rearm(now time.Duration) (at time.Duration, armed bool) {
	if at, armed = l.Due(); armed && at <= now {
		l.rto, armed = 0, false
	}
	return at, armed
}

// End is one link end as the engine keeps it: the last message sent,
// under its action mutex, and the window, under its mailbox lock. The
// events that touch one half are that half's methods, Send and Answer
// touch both, and Gauge reports the window in core's terms, so every
// event is one call.
type End struct {
	Out  // under the action mutex
	Link // under the mailbox lock
}

// Fate is what became of one Send.
type Fate uint8

const (
	Held    Fate = iota // a repeat said off the tick path or before its deadline: it stays behind
	Refused             // the window is shut: lost at the sender; the section ships the link's header, probing
	Leaves              // admitted, leaving for the first time
	Repeats             // admitted, a repeat of a message already on the wire
)

// Send is one env.Send of m on path at time now: the sending rule says
// whether m leaves, the window whether it may. It reports m's fate and
// when a repeat of the link's last message comes due, which the timer
// wakes for: a refused message is tried again then, and a repeat held
// back on a disarmed link is due at once. The caller holds both locks.
func (e *End) Send(path core.SendPath, m core.Message, now, step time.Duration) (Fate, time.Duration) {
	send, repeat := e.Pass(path, m, now, step)
	at, _ := e.Due()
	switch {
	case !send:
		return Held, at
	case !e.Admit():
		return Refused, at
	}
	e.left = true // the window admitted it: it is on the wire
	if repeat {
		return Repeats, at
	}
	return Leaves, at
}

// Answer is Link.Answer for a drain at time now, and makes a repeat it
// owes due now: the window that refused the message reopened, so it need
// not wait out its deadline. A link whose group cannot act (live false:
// a crash window, a detached group, an unwired peer) answers nothing:
// its probe waits for a tick, its refused message for its deadline. The
// caller holds both locks.
func (e *End) Answer(now time.Duration, live bool) (header, repeat bool) {
	header, repeat = e.Link.Answer()
	if !live {
		return false, false
	}
	if repeat && e.used {
		e.rto = max(now-e.sentAt, 1)
	}
	return header, repeat
}

// Gauge folds the link's window gauges into ls, which may hold another
// instance's already: the larger of each wins.
func (e *End) Gauge(ls *core.LinkStats) {
	ls.InFlight = max(ls.InFlight, e.InFlight())
	ls.PeakInFlight = max(ls.PeakInFlight, e.peak)
	ls.PeakOutstanding = max(ls.PeakOutstanding, e.peakOutstanding)
}
