package engine

import (
	"context"
	"testing"

	"github.com/snapstab/snapstab/internal/core"
)

// The tests in this file pin what a shut window costs (DESIGN.md §7):
// one turnaround. A refused send ships its link's header, probing; the
// drain that reads the probe answers it; and the acknowledgment that
// reopens the window makes the refused message due at once. None of the
// three waits for a step tick or a repeat deadline, so the hand-driven
// nodes below run no tick until the last test's repeat, with their
// clocks pinned far inside every deadline.

// teller says msg to process 1 at every Step while msg is set, and
// ignores what it is sent.
type teller struct{ msg *core.Message }

func (s *teller) Instance() string { return "tell" }

func (s *teller) Step(env core.Env) bool {
	if s.msg != nil {
		env.Send(1, *s.msg)
	}
	return s.msg != nil
}

func (s *teller) Deliver(core.Env, core.ProcID, core.Message) {}

func told(num int64) *core.Message {
	return &core.Message{Instance: "tell", Kind: "T", B: core.Payload{Num: num}}
}

// shutPair builds two still tellers at c = 1 and shuts node 0's window
// toward node 1: node 0 sends a message node 1 does not consume yet,
// and node 0 consumes one from node 1, whose acknowledgment has nothing
// to ride on. Then node 0 says a second message: the window refuses it.
func shutPair(t *testing.T) ([]*Node, []*teller) {
	t.Helper()
	tellers := []*teller{{}, {}}
	_, nodes := stillStacks(t, []core.Stack{{tellers[0]}, {tellers[1]}}, WithCapacity(1))
	for _, n := range nodes {
		pin(n)
	}
	group0(nodes[0]).Do(func(env core.Env) { env.Send(1, *told(1)) })
	group0(nodes[1]).Do(func(env core.Env) { env.Send(0, *told(2)) })
	nodes[0].drainMail()
	if s := group0(nodes[0]).Stats(); s.EchoFrames != 0 || s.ProbeFrames != 0 {
		t.Fatalf("before the refusal: %d echo frames, %d probe frames; want none", s.EchoFrames, s.ProbeFrames)
	}
	tellers[0].msg = told(3)
	group0(nodes[0]).Do(func(env core.Env) { tellers[0].Step(env) })
	return nodes, tellers
}

// probed reports whether n's window toward process 1-n's teller holds a
// probe it has not answered.
func probed(n *Node) bool {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	return group0(n).channel(1-n.self, "tell").end.Probed()
}

// TestRefusalShipsHeaderAndProbe: the section whose send a shut window
// refuses puts the link's header in its frame to the peer — the current
// acknowledgment, probing — so the peer hears both without a tick.
func TestRefusalShipsHeaderAndProbe(t *testing.T) {
	nodes, _ := shutPair(t)
	s0 := group0(nodes[0]).Stats()
	if s0.SendDrops != 1 || s0.ProbeFrames != 1 {
		t.Fatalf("refusing section: %d send drops, %d probe frames; want the send refused and one probe", s0.SendDrops, s0.ProbeFrames)
	}
	if l := group0(nodes[1]).Stats().Links[0]; l.InFlight != 0 {
		t.Fatalf("peer's window holds %d after the probe; want the acknowledgment it carried to release it", l.InFlight)
	}
	if !probed(nodes[1]) {
		t.Fatal("the peer's window saw no probe")
	}
}

// TestProbeAnsweredByDrain: the drain that reads a probe answers it in
// its own section — here with an echo-only frame, acknowledging the mail
// the same drain consumed — and the prober's window is open with no
// tick at either end.
func TestProbeAnsweredByDrain(t *testing.T) {
	nodes, _ := shutPair(t)
	nodes[1].drainMail()
	if s := group0(nodes[1]).Stats(); s.EchoFrames != 1 || probed(nodes[1]) {
		t.Fatalf("probed drain: %d echo frames, probe still pending %v; want the answer gone", s.EchoFrames, probed(nodes[1]))
	}
	if l := group0(nodes[0]).Stats().Links[0]; l.InFlight != 0 {
		t.Fatalf("prober's window holds %d after the answer; want it open", l.InFlight)
	}
}

// TestReopenRepeatsRefusedFlag: the acknowledgment that reopens a window
// which refused a send makes the refused message due now. The drain that
// reads it sets the timer for now, not for the link's deadline half a
// step away, and a tick run at once — the clock still microseconds past
// the refusal — says the message again. It leaves for the first time, so
// it is not counted as a retransmission.
func TestReopenRepeatsRefusedFlag(t *testing.T) {
	nodes, _ := shutPair(t)
	n := nodes[0]
	nodes[1].drainMail() // the answer: n's window reopens
	n.mu.Lock()
	refusedAt := n.now
	deadline, _ := group0(n).channel(1, "tell").end.Due()
	n.release()
	pin(n)
	n.drainMail()
	n.mu.Lock()
	wake := n.wake
	n.release()
	if wake >= deadline || wake-refusedAt >= stepInterval/4 {
		t.Fatalf("timer set %v after the refusal, deadline %v after it; want it set for now",
			wake-refusedAt, deadline-refusedAt)
	}
	pin(n)
	n.tick()
	if s := group0(n).Stats(); s.Sends != 2 || s.Retransmits != 0 || s.SendDrops != 1 {
		t.Fatalf("tick after the reopening: %d sends, %d retransmissions, %d send drops; want the refused message gone, on the wire for the first time: 2, 0, 1",
			s.Sends, s.Retransmits, s.SendDrops)
	}
	if listed(nodes[1]) != 1 {
		t.Fatal("the repeat never reached the peer's mailbox")
	}
}

// TestSettleStandsDownAfterARefusal (Group.settle): a refusal on the
// action path begins no stand-down; a refusal of an eager Step's message
// does, and the eager Step after it is skipped; the tick's Step always
// runs, its own refusal does not count, and eager stepping resumes after
// it. Each Step says a new message, so every one that runs is refused at
// the shut window and counted as a send drop.
func TestSettleStandsDownAfterARefusal(t *testing.T) {
	nodes, tellers := shutPair(t)
	n := nodes[0]
	steps := func(path core.SendPath, num int64) int64 {
		tellers[0].msg = told(num)
		before := group0(n).Stats().SendDrops
		n.mu.Lock()
		group0(n).settle(path)
		n.flush()
		n.release()
		return group0(n).Stats().SendDrops - before
	}
	n.mu.Lock()
	refused := group0(n).refused
	n.release()
	if refused {
		t.Fatal("a refusal on the action path stood eager stepping down")
	}
	for i, want := range []struct {
		path  core.SendPath
		steps int64
	}{{core.PathEager, 1}, {core.PathEager, 0}, {core.PathTick, 1}, {core.PathEager, 1}, {core.PathEager, 0}} {
		if got := steps(want.path, int64(4+i)); got != want.steps {
			t.Fatalf("section %d (path %d): %d steps, want %d", i, want.path, got, want.steps)
		}
	}
}

// TestReopenResumesEagerStepping: an eager Step that a shut window
// refused stands eager stepping down (Group.refused) — until the
// acknowledgment that reopens the window arrives, not until the next
// tick. The drain that reads it delivers mail, steps eagerly, and the
// new message that Step says leaves at once; having left, it supersedes
// the refused one, so no repeat is owed and the timer waits for the new
// message's own deadline.
func TestReopenResumesEagerStepping(t *testing.T) {
	tellers := []*teller{{msg: told(1)}, {}}
	_, nodes := stillStacks(t, []core.Stack{{tellers[0]}, {tellers[1]}}, WithCapacity(1))
	for _, n := range nodes {
		pin(n)
	}
	n := nodes[0]
	eager := func() {
		if err := group0(n).Await(context.Background(), func(core.Env) bool { return true }); err != nil {
			t.Fatal(err) // its one section ends with an eager Step
		}
	}
	eager()
	tellers[0].msg = told(2)
	eager()
	if s := group0(n).Stats(); s.Sends != 1 || s.SendDrops != 1 {
		t.Fatalf("%d sends, %d send drops; want the second message refused", s.Sends, s.SendDrops)
	}
	tellers[0].msg = told(3)
	nodes[1].drainMail() // consumes the first message, answers the probe: the window reopens
	group0(nodes[1]).Do(func(env core.Env) { env.Send(0, *told(4)) })
	pin(n)
	n.drainMail()
	n.mu.Lock()
	now, wake := n.now, n.wake
	n.release()
	if s := group0(n).Stats(); s.Sends != 2 {
		t.Fatalf("%d sends after the reopening drain; want its eager Step's message gone at once", s.Sends)
	}
	if wake-now < stepInterval/4 {
		t.Fatalf("timer set %v ahead; want no repeat owed for the superseded message", wake-now)
	}
}
