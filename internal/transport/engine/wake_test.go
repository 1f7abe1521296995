package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// The tests in this file pin the timer's one rule (DESIGN.md §7): a node
// parks when nothing is owed, and every event that makes something owed
// sets the timer again. They drive still nodes, whose armed state is what
// a loop's timer would be set for.

// parked builds two still PIF nodes and runs a first tick at each, after
// which a fresh node owes nothing.
func parked(t *testing.T, opts ...Option) []*Node {
	t.Helper()
	_, nodes, _ := still(t, 2, opts...)
	ticks(nodes)
	for i, n := range nodes {
		if armed(n) {
			t.Fatalf("node %d: a fresh node's first tick left the timer set", i)
		}
	}
	return nodes
}

// TestWakeOnMail: mail that a parked node consumes without answering
// owes an acknowledgment, so the drain sets the timer, and the echo
// leaves from the ticks it set; then the node parks again.
func TestWakeOnMail(t *testing.T) {
	nodes := parked(t)
	n := nodes[0]
	n.arrive(1, 0, []wire.LinkHeader{{Instance: "pif", Seq: 9, Count: 1}}, []core.Message{{Instance: "pif", Kind: "K"}})
	pin(n)
	n.drainMail()
	if !armed(n) {
		t.Fatal("consumed mail left the timer parked: its acknowledgment would never leave")
	}
	ticks(nodes[:1])
	if !armed(n) {
		t.Fatal("the tick that aged the echo parked the timer before the echo left")
	}
	advance(nodes[:1], stepInterval)
	ticks(nodes[:1])
	if s := group0(n).Stats(); s.EchoFrames != 1 || armed(n) {
		t.Fatalf("%d echo frames, armed %v; want the echo gone and the node parked", s.EchoFrames, armed(n))
	}
}

// TestWakeOnProbe: a frame that carries only a probe boxes nothing, yet
// the probe is owed its answer, so its arrival owes a drain, which
// answers it; the channel is listed for mail at most once.
func TestWakeOnProbe(t *testing.T) {
	nodes := parked(t)
	n := nodes[0]
	probe := []wire.LinkHeader{{Instance: "pif", Probe: true}}
	n.arrive(1, 0, probe, nil)
	if !n.owed.Load() {
		t.Fatal("a probe-only frame owed no drain")
	}
	pin(n)
	n.drainMail()
	if s := group0(n).Stats(); s.EchoFrames != 1 {
		t.Fatalf("%d echo frames after the drain; want the probe answered there", s.EchoFrames)
	}
	ticks(nodes[:1])
	if s := group0(n).Stats(); s.EchoFrames != 1 || armed(n) {
		t.Fatalf("%d echo frames, armed %v; want no second answer and the node parked", s.EchoFrames, armed(n))
	}

	from1(n, 1, 1)
	n.arrive(1, 0, probe, nil)
	n.mbMu.Lock()
	listed := len(n.ready)
	n.mbMu.Unlock()
	if listed != 1 {
		t.Fatalf("a channel with mail and a probe is listed %d times, want once", listed)
	}
}

// TestWakeOnDo: a Do may enable actions that only the tick path steps,
// so it sets the timer.
func TestWakeOnDo(t *testing.T) {
	nodes := parked(t)
	group0(nodes[0]).Do(func(core.Env) {})
	if !armed(nodes[0]) {
		t.Fatal("a Do left the timer parked")
	}
}

// TestWakeOnAwait: a pending Await keeps the tick coming, since its
// condition may read what no section at this node changes; once it is
// released the node parks.
func TestWakeOnAwait(t *testing.T) {
	nodes := parked(t)
	n := nodes[0]
	var ready atomic.Bool
	errc := make(chan error, 1)
	go func() { errc <- group0(n).Await(context.Background(), func(core.Env) bool { return ready.Load() }) }()
	if !waitFor(10*time.Second, func() bool { return waiting(n) == 1 }) {
		t.Fatal("Await never registered its condition")
	}
	if !armed(n) {
		t.Fatal("a registered Await left the timer parked")
	}
	ticks(nodes[:1])
	if !armed(n) {
		t.Fatal("the tick parked the timer with an Await pending")
	}
	ready.Store(true)
	ticks(nodes[:1])
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	ticks(nodes[:1])
	if armed(n) {
		t.Fatal("the timer still set once the Await was released")
	}
}

// TestWakeWithFaultPlan: a fault plan's delays, crash and partition
// windows run on the clock, so a group with a plan keeps the tick coming.
func TestWakeWithFaultPlan(t *testing.T) {
	plan := &core.FaultPlan{Unit: time.Hour, Default: core.LinkFaults{DelayRate: 0.5, DelayTicks: 1}}
	_, nodes, _ := still(t, 2, WithFaults(plan))
	for i := 0; i < 3; i++ {
		ticks(nodes[:1])
		if !armed(nodes[0]) {
			t.Fatalf("tick %d parked a node whose group has a fault plan", i)
		}
	}
}

// sayer sends one fixed message to process 1 at every Step while say is
// set, and ignores what it is sent.
type sayer struct{ say bool }

func (s *sayer) Instance() string { return "say" }

func (s *sayer) Step(env core.Env) bool {
	if s.say {
		env.Send(1, core.Message{Instance: "say", Kind: "S"})
	}
	return s.say
}

func (s *sayer) Deliver(core.Env, core.ProcID, core.Message) {}

// TestWakeOnEagerRepeat: a link disarms when its stack stops saying its
// last message. When an eager Step says it again, the rule holds the
// repeat back, as it does every eager repeat, and the Send sets the timer
// for the link's passed deadline, so a parked node's next tick repeats it.
func TestWakeOnEagerRepeat(t *testing.T) {
	s0 := &sayer{say: true}
	_, nodes := stillStacks(t, []core.Stack{{s0}, {&sayer{}}})
	ticks(nodes[:1]) // the message leaves new
	pump(nodes)
	s0.say = false
	for i := 0; i < 2; i++ {
		advance(nodes, stepInterval)
		ticks(nodes) // node 0 disarms; node 1's echo ages and leaves
		pump(nodes)
	}
	for i, n := range nodes {
		if armed(n) {
			t.Fatalf("node %d: timer still set with the stack silent and the echo gone", i)
		}
	}
	s0.say = true
	if err := group0(nodes[0]).Await(context.Background(), func(core.Env) bool { return true }); err != nil {
		t.Fatal(err) // its one section ends with an eager Step
	}
	if s := group0(nodes[0]).Stats(); s.Sends != 1 || !armed(nodes[0]) {
		t.Fatalf("%d sends, armed %v after the eager Step; want the repeat held back and the timer set", s.Sends, armed(nodes[0]))
	}
	ticks(nodes[:1])
	if s := group0(nodes[0]).Stats(); s.Sends != 2 || s.Retransmits != 1 {
		t.Fatalf("%d sends, %d retransmissions at the deadline; want 2 and 1", s.Sends, s.Retransmits)
	}
}
