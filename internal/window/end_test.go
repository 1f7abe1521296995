package window

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// TestLinkOutRule walks one link through the sending rule: new messages
// leave from every path, a repeated one only from the tick path, half a
// step after a new message and a whole step after a repeat.
func TestLinkOutRule(t *testing.T) {
	const step, ms = 2 * time.Millisecond, time.Millisecond
	a := core.Message{Instance: "i", Kind: "k", State: 1}
	b := core.Message{Instance: "i", Kind: "k", State: 2}
	var l Out
	for i, s := range []struct {
		path         core.SendPath
		m            core.Message
		now          time.Duration
		send, repeat bool
		due          time.Duration // the deadline after the call
	}{
		{core.PathEager, a, 0, true, false, ms},                   // first message on the link: new
		{core.PathEager, a, 0, false, false, ms},                  // the same again: stays behind
		{core.PathAction, a, ms / 2, true, false, 3 * ms / 2},     // Deliver answers whatever it answers, and restarts the deadline
		{core.PathTick, a, ms, false, false, 3 * ms / 2},          // not due yet
		{core.PathEager, a, 2 * ms, false, false, 3 * ms / 2},     // due, but only the tick path repeats
		{core.PathTick, a, 2 * ms, true, true, 4 * ms},            // due: repeat, and back off to a whole step
		{core.PathTick, a, 3 * ms, false, false, 4 * ms},          // half a step is not enough after a repeat
		{core.PathTick, a, 4 * ms, true, true, 6 * ms},            // and again, once per step, while nothing new leaves
		{core.PathEager, b, 9 * ms / 2, true, false, 11 * ms / 2}, // new information leaves at once
		{core.PathTick, b, 5 * ms, false, false, 11 * ms / 2},
		{core.PathTick, a, 5 * ms, true, false, 6 * ms}, // the timer may carry new information too
		{core.PathTick, a, 6 * ms, true, true, 8 * ms},  // whose repeat is due half a step later
	} {
		send, repeat := l.Pass(s.path, s.m, s.now, step)
		l.left = l.left || send // every message here is admitted
		if due, armed := l.Due(); send != s.send || repeat != s.repeat || due != s.due || !armed {
			t.Fatalf("step %d: Pass(%d, State=%d, %v) = %v, %v, due %v (armed %v); want %v, %v, due %v",
				i, s.path, s.m.State, s.now, send, repeat, due, armed, s.send, s.repeat, s.due)
		}
	}
	if at, armed := l.Rearm(7 * ms); at != 8*ms || !armed {
		t.Fatalf("Rearm before the deadline: %v (armed %v), want 8ms and armed", at, armed)
	}
	if _, armed := l.Rearm(8 * ms); armed {
		t.Fatal("armed after Rearm found the deadline passed")
	}
	if send, repeat := l.Pass(core.PathTick, a, 8*ms, step); !send || !repeat {
		t.Fatalf("a disarmed link's last message, said again on the tick path: Pass = %v, %v; want a repeat", send, repeat)
	}
	if due, armed := l.Due(); due != 10*ms || !armed {
		t.Fatalf("after the repeat: due %v (armed %v), want 10ms and armed", due, armed)
	}
	// A message the window refused never left: when it is said again, it
	// leaves for the first time, not as a repeat. Once it has left, it is.
	l.Pass(core.PathEager, b, 10*ms, step)
	if send, repeat := l.Pass(core.PathTick, b, 11*ms, step); !send || repeat {
		t.Fatalf("a refused message said again once due: Pass = %v, %v; want it sent, not a repeat", send, repeat)
	}
	l.left = true
	if send, repeat := l.Pass(core.PathTick, b, 13*ms, step); !send || !repeat {
		t.Fatalf("the same message once it left: Pass = %v, %v; want a repeat", send, repeat)
	}
}

// TestEndShutWindowTurnaround walks one End through a shut window at
// c = 1: the refused send probes, the reopening owes a drain, and the
// drain's answer makes the refused message due at once, which then
// leaves for the first time, not as a repeat. A group that cannot act
// answers nothing.
func TestEndShutWindowTurnaround(t *testing.T) {
	const step, ms = 2 * time.Millisecond, time.Millisecond
	a := core.Message{Instance: "i", Kind: "k", State: 1}
	b := core.Message{Instance: "i", Kind: "k", State: 2}
	e, peer := End{Link: NewLink(1, 10)}, NewLink(1, 50)
	if f, at := e.Send(core.PathAction, a, 0, step); f != Leaves || at != ms {
		t.Fatalf("first send: %v, due %v; want Leaves, due 1ms", f, at)
	}
	peer.Arrive(e.Stamp(), 1)
	if f, _ := e.Send(core.PathEager, b, 0, step); f != Refused || !e.Stamp().Probe {
		t.Fatalf("send into the shut window: %v; want Refused, and a probing header", f)
	}
	if f, _ := e.Send(core.PathEager, b, 0, step); f != Held {
		t.Fatalf("the refused message said again off the tick path: %v; want Held", f)
	}
	peer.Occupy(-1)
	if _, owed := e.Arrive(peer.Stamp(), 0); !owed {
		t.Fatal("the reopening acknowledgment owes no drain")
	}
	if header, repeat := e.Answer(ms/4, true); header || !repeat {
		t.Fatalf("the drain's answer: header %v, repeat %v; want the repeat only", header, repeat)
	}
	if f, at := e.Send(core.PathTick, b, ms/4, step); f != Leaves || at != ms/4+step {
		t.Fatalf("the refused message once its window reopened: %v, due %v; want Leaves, due %v", f, at, ms/4+step)
	}
	var ls core.LinkStats
	e.Gauge(&ls)
	if ls.InFlight != 1 || ls.PeakInFlight != 1 || ls.PeakOutstanding != 1 {
		t.Fatalf("gauges %+v; want 1 in flight, peaks of 1", ls)
	}

	// A refusal whose reopening finds the group unable to act.
	e.Send(core.PathEager, a, ms, step)
	peer.Arrive(e.Stamp(), 1)
	peer.Occupy(-1)
	e.Arrive(peer.Stamp(), 0)
	if header, repeat := e.Answer(ms, false); header || repeat || e.Reopened() {
		t.Fatalf("a group that cannot act: header %v, repeat %v, reopened %v; want nothing", header, repeat, e.Reopened())
	}
}
