package core

import (
	"fmt"
	"slices"
	"testing"
)

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
