package udp

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/wire"
)

// cluster spins up n nodes on loopback with OS-assigned ports. Each
// process's stack is produced by mk once the port layout is known.
func cluster(t *testing.T, n int, mk func(self core.ProcID) core.Stack) []*Node {
	t.Helper()
	// First bind placeholder nodes to learn ports: bind real nodes in two
	// phases instead — phase 1 reserves addresses.
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	// Reserve ports by binding, then rebuild the peer lists.
	for i := 0; i < n; i++ {
		node, err := NewNode(core.ProcID(i), mk(core.ProcID(i)), "127.0.0.1:0", make([]string, n))
		if err != nil {
			t.Fatalf("bind node %d: %v", i, err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	// Fill in the real peer addresses now that all ports are known.
	for i, node := range nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			peer, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				t.Fatalf("parse %q: %v", a, err)
			}
			node.peers[j] = peer
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	checkWindows(t, nodeStats(nodes))
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	return nodes
}

// checkWindows is the teardown assertion of every test that ran real
// nodes: no link's in-flight count ever exceeded the capacity bound.
func checkWindows(t *testing.T, s core.TransportStatser) {
	t.Helper()
	t.Cleanup(func() {
		if err := core.CheckWindows(s.TransportStats()); err != nil {
			t.Error(err)
		}
	})
}

// nodeStats adapts bare nodes to core.TransportStatser.
type nodeStats []*Node

func (ns nodeStats) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(ns))
	for i, n := range ns {
		out[i] = n.transportStats(n.g0)
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestPIFOverLoopbackUDP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	machines := make([]*pif.PIF, n)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultCapacity))
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "hello", Num: 4}
	nodes[0].Do(func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast over real UDP did not complete")
	}
}

func TestPIFOverUDPFromCorruptedState(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 2
	machines := make([]*pif.PIF, n)
	r := rng.New(7)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultCapacity))
		m.Corrupt(r)
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "fresh", Num: 3}
	invoked := waitFor(t, 20*time.Second, func() bool {
		var ok bool
		nodes[0].Do(func(env core.Env) { ok = machines[0].Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("corrupted computation never terminated")
	}
	var feedback core.Payload
	nodes[0].Do(func(core.Env) {
		cb := machines[0].Callbacks()
		cb.OnFeedback = func(_ core.Env, _ core.ProcID, f core.Payload) { feedback = f }
		machines[0].SetCallbacks(cb)
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
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
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		d := idl.New("idl", self, n, ids[self], pif.WithCapacityBound(DefaultCapacity))
		machines[self] = d
		return d.Machines()
	})
	nodes[0].Do(func(env core.Env) { machines[0].Invoke(env) })
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() })
		return done
	})
	if !ok {
		t.Fatal("IDs-Learning over UDP did not complete")
	}
	nodes[0].Do(func(core.Env) {
		if machines[0].MinID != 10 || machines[0].IDTab[1] != 10 || machines[0].IDTab[2] != 20 {
			t.Errorf("MinID=%d IDTab=%v", machines[0].MinID, machines[0].IDTab)
		}
	})
}

// freeze holds node's action mutex until the returned release is
// called: drains stop, the receive loop keeps boxing.
func freeze(node *Node) (release func()) {
	done := make(chan struct{})
	frozen := make(chan struct{})
	go node.Do(func(core.Env) {
		close(frozen)
		<-done
	})
	<-frozen
	return func() { close(done) }
}

// flood fires count single-message link frames at node from the raw
// peer, as a sender that ignores the window would.
func flood(t *testing.T, raw *net.UDPConn, node *Node, count int) {
	t.Helper()
	target := mustUDPAddr(t, node.Addr())
	for i := 1; i <= count; i++ {
		data := linkFrame(t, 0, wire.LinkHeader{Instance: "rec", Seq: uint64(i)},
			core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i)}})
		if _, err := raw.WriteToUDP(data, target); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMailboxBoundsBacklog(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	// A node that is never activated accumulates at most c messages per
	// (sender, instance), even from a peer that ignores the window.
	node, _, raw := rawPeer(t)
	release := freeze(node)
	flood(t, raw, node, 100)
	if !waitFor(t, 5*time.Second, func() bool { return node.Stats().MailboxDrops > 0 }) {
		t.Fatal("100 datagrams at a frozen node overflowed nothing")
	}
	node.mbMu.Lock()
	held := len(node.mailboxes[mailKey{from: 1, instance: "rec"}])
	node.mbMu.Unlock()
	release()
	if held > node.capacity {
		t.Fatalf("mailbox holds %d messages, above the bound %d", held, node.capacity)
	}
}

func TestStatsCountSendsAndDrops(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	const n = 2
	machines := make([]*pif.PIF, n)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{}, pif.WithCapacityBound(DefaultCapacity))
		machines[self] = m
		return core.Stack{m}
	})
	nodes[0].Do(func(env core.Env) {
		env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
	})
	if got := nodes[0].Stats().Sends; got < 1 {
		t.Fatalf("Sends = %d after a successful send, want >= 1", got)
	}
	if got := nodes[0].Stats().SendDrops; got != 0 {
		t.Fatalf("SendDrops = %d on a healthy socket, want 0", got)
	}
}

func TestStatsCountDroppedSends(t *testing.T) {
	t.Parallel()
	stack := core.Stack{pif.New("pif", 0, 2, pif.Callbacks{})}
	node, err := NewNode(0, stack, "127.0.0.1:0", []string{"", "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	// Stop closes the socket (the loops were never started), so every
	// subsequent WriteToUDP fails: the silent-swallow path of env.Send.
	node.Stop()
	const attempts = 3
	node.Do(func(env core.Env) {
		for i := 0; i < attempts; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	s := node.Stats()
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
	node, _, raw := rawPeer(t, WithCapacity(1), WithObserver(core.ObserverFunc(func(e core.Event) {
		switch e.Kind {
		case core.EvLose:
			losses.Add(1)
		case core.EvSendLost:
			sendLost.Add(1)
		}
	})))
	defer freeze(node)()
	flood(t, raw, node, 50)
	if !waitFor(t, 5*time.Second, func() bool { return node.Stats().MailboxDrops > 0 }) {
		t.Fatal("flooding a 1-slot mailbox on a frozen receiver produced no MailboxDrops")
	}
	if losses.Load() == 0 {
		t.Fatal("mailbox-full drops emitted no EvLose events")
	}
	if got := sendLost.Load(); got != 0 {
		t.Fatalf("mailbox-full drops emitted %d EvSendLost events; receive-side loss must be EvLose", got)
	}
}

func TestNodeValidation(t *testing.T) {
	t.Parallel()
	stack := core.Stack{pif.New("pif", 0, 2, pif.Callbacks{})}
	if _, err := NewNode(5, stack, "127.0.0.1:0", []string{"a", "b"}); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := NewNode(0, stack, "127.0.0.1:0", []string{"", "not-an-addr:xx"}); err == nil {
		t.Fatal("bad peer address accepted")
	}
	if _, err := NewNode(0, stack, "127.0.0.1:0", make([]string, 2), WithCapacity(0)); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
