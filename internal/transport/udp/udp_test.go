package udp

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// cluster spins up n nodes on loopback with OS-assigned ports; each
// process's stack is produced by mk.
func cluster(t *testing.T, n int, mk func(self core.ProcID) core.Stack) *engine.Cluster {
	t.Helper()
	stacks := make([]core.Stack, n)
	for i := range stacks {
		stacks[i] = mk(core.ProcID(i))
	}
	c, err := engine.NewCluster(Transport, stacks)
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	t.Cleanup(func() { c.Close() })
	return c
}

var waitFor = linktest.WaitFor

func TestPIFOverLoopbackUDP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	machines := make([]*pif.PIF, n)
	c := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(engine.DefaultCapacity))
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "hello", Num: 4}
	c.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast over real UDP did not complete")
	}
	// The per-link message counters add up to the node's own: every
	// message a written datagram carried is charged to its destination.
	c.Close()
	for p, s := range c.TransportStats() {
		var sent, received int64
		for _, l := range s.Links {
			sent += l.Sent
			received += l.Received
		}
		if sent == 0 || sent != s.Sends {
			t.Errorf("node %d: Sends = %d, sum of Links.Sent = %d", p, s.Sends, sent)
		}
		if received == 0 || received != s.Recvs {
			t.Errorf("node %d: Recvs = %d, sum of Links.Received = %d", p, s.Recvs, received)
		}
	}
}

func TestPIFOverUDPFromCorruptedState(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 2
	machines := make([]*pif.PIF, n)
	r := rng.New(7)
	c := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(engine.DefaultCapacity))
		m.Corrupt(r)
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "fresh", Num: 3}
	invoked := waitFor(t, 20*time.Second, func() bool {
		var ok bool
		c.Do(0, func(env core.Env) { ok = machines[0].Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("corrupted computation never terminated")
	}
	var feedback core.Payload
	c.Do(0, func(core.Env) {
		cb := machines[0].Callbacks()
		cb.OnFeedback = func(_ core.Env, _ core.ProcID, f core.Payload) { feedback = f }
		machines[0].SetCallbacks(cb)
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("requested broadcast did not complete over UDP")
	}
	want := core.Payload{Tag: "ack", Num: token.Num*10 + 1}
	if !feedback.Equal(want) {
		t.Fatalf("decided on feedback %v, want %v", feedback, want)
	}
}

func TestIDLOverUDP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	ids := []int64{30, 10, 20}
	machines := make([]*idl.IDL, n)
	c := cluster(t, n, func(self core.ProcID) core.Stack {
		d := idl.New("idl", self, n, ids[self], pif.WithCapacityBound(engine.DefaultCapacity))
		machines[self] = d
		return d.Machines()
	})
	c.Do(0, func(env core.Env) { machines[0].Invoke(env) })
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		c.Do(0, func(core.Env) { done = machines[0].Done() })
		return done
	})
	if !ok {
		t.Fatal("IDs-Learning over UDP did not complete")
	}
	c.Do(0, func(core.Env) {
		if machines[0].MinID != 10 || machines[0].IDTab[1] != 10 || machines[0].IDTab[2] != 20 {
			t.Errorf("MinID=%d IDTab=%v", machines[0].MinID, machines[0].IDTab)
		}
	})
}

// flood fires count single-message link frames at node from the raw
// peer, as a sender that ignores the window would.
func flood(p *rawPeer, count int) {
	for i := 1; i <= count; i++ {
		p.Send([]wire.LinkHeader{{Instance: "rec", Seq: uint64(i)}},
			core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i)}})
	}
}

func TestMailboxBoundsBacklog(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	// A node that is never activated accumulates at most one drained batch
	// and one full mailbox — 2c messages per (sender, instance) — even
	// from a peer that ignores the window.
	p, _ := recorderAtRawPeer(t)
	defer linktest.Freeze(p.g)()
	flood(p, 100)
	if !waitFor(t, 5*time.Second, func() bool { return p.g.Stats().MailboxDrops > 0 }) {
		t.Fatal("100 datagrams at a frozen node overflowed nothing")
	}
	if held := p.g.Stats().Recvs; held > 2*engine.DefaultCapacity {
		t.Fatalf("frozen node holds %d messages, above the bound %d", held, 2*engine.DefaultCapacity)
	}
}

func TestStatsCountSendsAndDrops(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	const n = 2
	machines := make([]*pif.PIF, n)
	c := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{}, pif.WithCapacityBound(engine.DefaultCapacity))
		machines[self] = m
		return core.Stack{m}
	})
	c.Do(0, func(env core.Env) {
		env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
	})
	if got := c.TransportStats()[0].Sends; got < 1 {
		t.Fatalf("Sends = %d after a successful send, want >= 1", got)
	}
	if got := c.TransportStats()[0].SendDrops; got != 0 {
		t.Fatalf("SendDrops = %d on a healthy socket, want 0", got)
	}
}

func TestStatsCountDroppedSends(t *testing.T) {
	t.Parallel()
	stack := core.Stack{pif.New("pif", 0, 2, pif.Callbacks{})}
	g := linktest.Host(t, Transport, 0, stack, "127.0.0.1:0", []string{"", "127.0.0.1:9"})
	// Stop closes the socket (the loops were never started), so every
	// subsequent WriteToUDP fails: the silent-swallow path of env.Send.
	g.Node().Stop()
	const attempts = 3
	g.Do(func(env core.Env) {
		for i := 0; i < attempts; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	s := g.Stats()
	if s.SendDrops != attempts {
		t.Fatalf("SendDrops = %d, want %d", s.SendDrops, attempts)
	}
	if s.Sends != 0 {
		t.Fatalf("Sends = %d on a closed socket, want 0", s.Sends)
	}
}

func TestStatsCountMailboxDrops(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	// A receiver with a 1-slot mailbox whose activation loop is frozen
	// must count every overflowing message — and report each as a
	// receive-side EvLose, never as the sender-side EvSendLost.
	var losses, sendLost atomic.Int64
	p, _ := recorderAtRawPeer(t, engine.WithCapacity(1), engine.WithObserver(core.ObserverFunc(func(e core.Event) {
		switch e.Kind {
		case core.EvLose:
			losses.Add(1)
		case core.EvSendLost:
			sendLost.Add(1)
		}
	})))
	defer linktest.Freeze(p.g)()
	flood(p, 50)
	// box counts the drop before it emits the event: wait for both.
	if !waitFor(t, 5*time.Second, func() bool { return p.g.Stats().MailboxDrops > 0 && losses.Load() > 0 }) {
		t.Fatalf("flooding a 1-slot mailbox on a frozen receiver: MailboxDrops=%d, EvLose events=%d, want both > 0",
			p.g.Stats().MailboxDrops, losses.Load())
	}
	if got := sendLost.Load(); got != 0 {
		t.Fatalf("mailbox-full drops emitted %d EvSendLost events; receive-side loss must be EvLose", got)
	}
}

func TestNodeValidation(t *testing.T) {
	t.Parallel()
	stack := core.Stack{pif.New("pif", 0, 2, pif.Callbacks{})}
	if _, err := engine.Host(Transport, 5, stack, "127.0.0.1:0", []string{"a", "b"}); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := engine.Host(Transport, 0, stack, "127.0.0.1:0", []string{"", "not-an-addr:xx"}); err == nil {
		t.Fatal("bad peer address accepted")
	}
	if _, err := engine.Host(Transport, 0, stack, "127.0.0.1:0", make([]string, 2), engine.WithCapacity(0)); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
