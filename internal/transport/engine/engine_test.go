package engine

import (
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// The engine's own tests run on the in-memory link (memory.go), so what
// they pin — channels, groups, wiring, whole clusters — is checked
// without a socket. The tests every link must pass run on it from
// link_test.go.

// pifStacks builds one PIF stack per process at the default capacity
// bound.
func pifStacks(n int) ([]core.Stack, []*pif.PIF) { return pifStacksAt(n, DefaultCapacity) }

// pifStacksAt builds them for the capacity bound c. Process q answers a
// broadcast of b with the feedback {ack, 100·b.Num + q}.
func pifStacksAt(n, c int) ([]core.Stack, []*pif.PIF) {
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := range stacks {
		id := core.ProcID(i)
		machines[i] = pif.New("pif", id, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*100 + int64(id)}
			},
		}, pif.WithCapacityBound(c))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

// waitFor polls cond (under no lock; use Do inside cond if state access
// is needed) until it holds or d elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestBroadcastOverPipes: the engine alone — channels and loops —
// carries a PIF broadcast to its decision within the capacity bound.
func TestBroadcastOverPipes(t *testing.T) {
	t.Parallel()
	stacks, machines := pifStacks(3)
	c, err := NewCluster(Memory(), stacks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	token := core.Payload{Tag: "hello", Num: 4}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	done := func() (ok bool) {
		c.Do(0, func(core.Env) { ok = machines[0].Done() && machines[0].BMes.Equal(token) })
		return ok
	}
	if !waitFor(20*time.Second, done) {
		t.Fatal("broadcast over the in-memory link did not complete")
	}
	stats := c.TransportStats()
	if err := core.CheckWindows(stats); err != nil {
		t.Fatal(err)
	}
	for p, s := range stats {
		var sent int64
		for _, l := range s.Links {
			sent += l.Sent
		}
		if s.Sends == 0 || sent != s.Sends {
			t.Fatalf("node %d: Sends = %d, sum of Links.Sent = %d", p, s.Sends, sent)
		}
	}
}

// TestMailboxHoldsAtMostC: a node that is never activated keeps at most
// c messages per (sender, instance) mailbox, even from a peer that
// ignores the window; the rest are MailboxDrops.
func TestMailboxHoldsAtMostC(t *testing.T) {
	t.Parallel()
	_, nodes, _ := still(t, 2)
	n := nodes[0] // never started: nothing drains
	for i := 1; i <= 100; i++ {
		n.arrive(1, 0, []wire.LinkHeader{{Instance: "pif", Seq: uint64(i), Count: 1}},
			[]core.Message{{Instance: "pif", Kind: pif.Kind}})
	}
	n.mbMu.Lock()
	held := len(group0(n).channel(1, "pif").box)
	n.mbMu.Unlock()
	if held != n.capacity {
		t.Fatalf("mailbox holds %d messages, want the bound %d", held, n.capacity)
	}
	if s := group0(n).Stats(); s.Recvs != int64(held) || s.MailboxDrops != 100-int64(held) {
		t.Fatalf("Recvs = %d, MailboxDrops = %d; want %d and %d", s.Recvs, s.MailboxDrops, held, 100-held)
	}
}

// TestCheckWindowsCountsOutstanding: the capacity check does not trust
// the window's own arithmetic. Node 0's window toward node 1 is corrupted
// to a base past next, a state only arbitrary initialization holds, and
// node 0 then says five different messages that node 1 never consumes.
// The teardown check reads the engine's own count of admitted sends no
// acknowledgment released, so it holds only if the link kept the bound.
func TestCheckWindowsCountsOutstanding(t *testing.T) {
	t.Parallel()
	_, nodes := stillStacks(t, []core.Stack{{&teller{}}, {&teller{}}})
	n := nodes[0]
	n.mbMu.Lock()
	group0(n).channel(1, "tell").end.Corrupt(1000, 1)
	n.mbMu.Unlock()
	for i := int64(1); i <= 5; i++ {
		group0(n).Do(func(env core.Env) { env.Send(1, *told(i)) })
	}
	s := group0(n).Stats()
	if err := core.CheckWindows([]core.TransportStats{s}); err != nil {
		t.Fatal(err)
	}
	if s.Sends < 1 || s.Links[0].PeakOutstanding < 1 {
		t.Fatalf("%d sends, a peak of %d outstanding: want the first message admitted and counted", s.Sends, s.Links[0].PeakOutstanding)
	}
}

// TestSetPeerKeepsToTopology: under a default-group topology a node
// never learns a non-neighbour's address, and a send to it is a counted
// sender-side loss, not a silent one.
func TestSetPeerKeepsToTopology(t *testing.T) {
	t.Parallel()
	_, nodes, _ := still(t, 3, WithTopology(core.Line(3)))
	n := nodes[0]
	if !n.wired[1] || n.wired[2] {
		t.Fatalf("wired = %v on the line 0-1-2, want only peer 1", n.wired)
	}
	group0(n).Do(func(env core.Env) { env.Send(2, core.Message{Instance: "pif", Kind: pif.Kind}) })
	if s := group0(n).Stats(); s.SendDrops != 1 || s.Sends != 0 {
		t.Fatalf("send to a non-neighbour: SendDrops = %d, Sends = %d; want 1 and 0", s.SendDrops, s.Sends)
	}
}

// TestNodeValidation: the engine rejects what no link could serve, and
// an option given where it does not apply: a group's on a bare node, a
// cluster's on a mux, a node's on an attach.
func TestNodeValidation(t *testing.T) {
	t.Parallel()
	tr := Memory()
	stacks, _ := pifStacks(2)
	peers := make([]string, 2)
	if _, err := Host(tr, 5, stacks[0], "", peers); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := Host(tr, 0, stacks[0], "", peers, WithCapacity(0)); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Host(tr, 0, stacks[0], "", peers, WithBatch(0)); err == nil {
		t.Error("zero batch accepted")
	}
	for _, opt := range []Option{WithTopology(core.Line(2)), WithFaults(&core.FaultPlan{})} {
		if _, err := NewMux(tr, 2, opt); err == nil {
			t.Error("group option accepted on a mux's nodes")
		}
	}
	if _, err := Host(tr, 0, stacks[0], "", peers, WithTopology(core.Line(3))); err == nil {
		t.Error("topology over the wrong process count accepted")
	}
	m, err := NewMux(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Attach(stacks, WithTopology(core.Line(3))); err == nil {
		t.Error("attached topology over the wrong process count accepted")
	}
	if _, err := NewCluster(tr, nil); err == nil {
		t.Error("empty cluster accepted")
	}
}
