package core

import (
	"sync/atomic"
	"testing"
)

// TestLinkOutRule walks one link through the sending rule: new messages
// leave from every path, a repeated one only from the tick, and only
// once the link has been silent since the tick before.
func TestLinkOutRule(t *testing.T) {
	a := Message{Instance: "i", Kind: "k", State: 1}
	b := Message{Instance: "i", Kind: "k", State: 2}
	var l LinkOut
	var retransmits atomic.Int64
	for i, step := range []struct {
		path        SendPath
		m           Message
		send, again bool
	}{
		{PathEager, a, true, false},  // first message on the link: new
		{PathEager, a, false, false}, // the same again: stays behind
		{PathAction, a, true, false}, // Deliver answers whatever it answers
		{PathTick, a, false, false},  // the link sent since the last tick: stand down once
		{PathTick, a, true, true},    // silent for a whole interval: retransmit
		{PathTick, a, true, true},    // and again, every tick, while nothing new leaves
		{PathEager, b, true, false},  // new information leaves at once
		{PathTick, b, false, false},
		{PathTick, a, true, false}, // the timer may carry new information too
		{PathTick, a, true, true},  // which does not count as traffic since the tick
	} {
		send := l.Pass(step.path, step.m, &retransmits)
		again := retransmits.Swap(0) == 1
		if send != step.send || again != step.again {
			t.Fatalf("step %d: Pass(%d, State=%d) = %v, %v; want %v, %v",
				i, step.path, step.m.State, send, again, step.send, step.again)
		}
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
