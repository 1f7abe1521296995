package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestLinkOutRule walks one link through the sending rule: new messages
// leave from every path, a repeated one only from the tick path, half a
// step after a new message and a whole step after a repeat.
func TestLinkOutRule(t *testing.T) {
	const step, ms = 2 * time.Millisecond, time.Millisecond
	a := Message{Instance: "i", Kind: "k", State: 1}
	b := Message{Instance: "i", Kind: "k", State: 2}
	var l LinkOut
	for i, s := range []struct {
		path         SendPath
		m            Message
		now          time.Duration
		send, repeat bool
		due          time.Duration // the deadline after the call
	}{
		{PathEager, a, 0, true, false, ms},                   // first message on the link: new
		{PathEager, a, 0, false, false, ms},                  // the same again: stays behind
		{PathAction, a, ms / 2, true, false, 3 * ms / 2},     // Deliver answers whatever it answers, and restarts the deadline
		{PathTick, a, ms, false, false, 3 * ms / 2},          // not due yet
		{PathEager, a, 2 * ms, false, false, 3 * ms / 2},     // due, but only the tick path repeats
		{PathTick, a, 2 * ms, true, true, 4 * ms},            // due: repeat, and back off to a whole step
		{PathTick, a, 3 * ms, false, false, 4 * ms},          // half a step is not enough after a repeat
		{PathTick, a, 4 * ms, true, true, 6 * ms},            // and again, once per step, while nothing new leaves
		{PathEager, b, 9 * ms / 2, true, false, 11 * ms / 2}, // new information leaves at once
		{PathTick, b, 5 * ms, false, false, 11 * ms / 2},
		{PathTick, a, 5 * ms, true, false, 6 * ms}, // the timer may carry new information too
		{PathTick, a, 6 * ms, true, true, 8 * ms},  // whose repeat is due half a step later
	} {
		send, repeat := l.Pass(s.path, s.m, s.now, step)
		if send {
			l.Left() // every message here is admitted
		}
		if due, armed := l.Due(); send != s.send || repeat != s.repeat || due != s.due || !armed {
			t.Fatalf("step %d: Pass(%d, State=%d, %v) = %v, %v, due %v (armed %v); want %v, %v, due %v",
				i, s.path, s.m.State, s.now, send, repeat, due, armed, s.send, s.repeat, s.due)
		}
	}
	l.Disarm()
	if _, armed := l.Due(); armed {
		t.Fatal("armed after Disarm")
	}
	if send, repeat := l.Pass(PathTick, a, 7*ms, step); !send || !repeat {
		t.Fatalf("a disarmed link's last message, said again on the tick path: Pass = %v, %v; want a repeat", send, repeat)
	}
	if due, armed := l.Due(); due != 9*ms || !armed {
		t.Fatalf("after the repeat: due %v (armed %v), want 9ms and armed", due, armed)
	}
	// A message the window refused never left: when it is said again, it
	// leaves for the first time, not as a repeat. Once it has left, it is.
	l.Pass(PathEager, b, 10*ms, step)
	if send, repeat := l.Pass(PathTick, b, 11*ms, step); !send || repeat {
		t.Fatalf("a refused message said again once due: Pass = %v, %v; want it sent, not a repeat", send, repeat)
	}
	l.Left()
	if send, repeat := l.Pass(PathTick, b, 13*ms, step); !send || !repeat {
		t.Fatalf("the same message once it left: Pass = %v, %v; want a repeat", send, repeat)
	}
}

type countingMachine struct{ steps int }

func (c *countingMachine) Instance() string             { return "count" }
func (c *countingMachine) Step(Env) bool                { c.steps++; return true }
func (c *countingMachine) Deliver(Env, ProcID, Message) {}

// TestSettleStandsDownAfterARefusal: once a link refused an eagerly
// stepped message, eager steps are skipped until the timer's next turn;
// the timer itself always steps, and a refusal on its own path does not
// count.
func TestSettleStandsDownAfterARefusal(t *testing.T) {
	var ws Waiters
	var envs [NumPaths]Env
	m := &countingMachine{}
	stack := Stack{m}
	ws.Settle(stack, &envs, PathEager)
	ws.Refused(PathTick)
	ws.Settle(stack, &envs, PathEager)
	if m.steps != 2 {
		t.Fatalf("%d steps before any eager refusal, want 2", m.steps)
	}
	ws.Refused(PathEager)
	ws.Settle(stack, &envs, PathEager)
	if m.steps != 2 {
		t.Fatalf("eager Step ran after a link refused its message (%d steps)", m.steps)
	}
	ws.Settle(stack, &envs, PathTick)
	ws.Settle(stack, &envs, PathEager)
	if m.steps != 4 {
		t.Fatalf("%d steps after the tick cleared the refusal, want 4", m.steps)
	}
}

// TestWaitersFIFO: requests at one process are served in order. Only the
// head is evaluated; the section that completes it evaluates the next,
// and a request whose condition already holds still waits its turn.
// Close completes what is left, in order, and every later request at
// once.
func TestWaitersFIFO(t *testing.T) {
	var ws Waiters
	var log []string
	ready := false
	request := func(name string, cond func() bool) {
		ws.Submit(nil, func(Env) bool {
			log = append(log, "eval "+name)
			return cond()
		}, func(_ Env, err error) {
			log = append(log, fmt.Sprintf("done %s %v", name, err))
		})
	}
	request("a", func() bool { return ready })
	request("b", func() bool { return true })
	request("c", func() bool { return false })
	var envs [NumPaths]Env
	stack := Stack{&countingMachine{}}
	ws.Settle(stack, &envs, PathEager)
	ready = true
	ws.Settle(stack, &envs, PathEager)
	ws.Close(nil)
	request("d", func() bool { return true })
	want := []string{
		"eval a", // at Submit: the head
		"eval a", // the first section: a does not hold, b and c are not looked at
		"eval a", "done a <nil>", "eval b", "done b <nil>", "eval c",
		"done c core: substrate closed",
		"done d core: substrate closed",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("got\n%q\nwant\n%q", log, want)
	}
	if ws.Len() != 0 {
		t.Fatalf("%d requests left after Close", ws.Len())
	}
}
