package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// mkPIF builds one process's PIF stack, recording the machine.
func mkPIF(machines []*pif.PIF, self core.ProcID, n int) core.Stack {
	m := pif.New("pif", self, n, pif.Callbacks{
		OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
			return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
		},
	}, pif.WithCapacityBound(engine.DefaultCapacity))
	machines[self] = m
	return core.Stack{m}
}

var waitFor = linktest.WaitFor

func TestPIFOverLoopbackTCP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path; the
	// interference slows the handshakes.
	const n = 3
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
	}
	c, err := engine.NewCluster(Transport, stacks)
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	defer c.Close()
	linktest.Broadcast(t, linktest.At0(c), machines[0], core.Payload{Tag: "hello", Num: 4})
	for i, s := range c.TransportStats() {
		if s.Sends == 0 {
			t.Errorf("node %d accepted no sends", i)
		}
		if s.Recvs == 0 {
			t.Errorf("node %d boxed no frames", i)
		}
	}
}

func TestPIFOverTCPFromCorruptedState(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 2
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	r := rng.New(7)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
		machines[i].Corrupt(r)
	}
	c, err := engine.NewCluster(Transport, stacks)
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	defer c.Close()
	linktest.Broadcast(t, linktest.At0(c), machines[0], core.Payload{Tag: "fresh", Num: 3})
}

// TestSimultaneousStartDialRace releases every node's Start from a
// barrier so all writers dial while all listeners are barely up, the
// worst-case connection race: the handshake must still complete.
func TestSimultaneousStartDialRace(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 3
	machines := make([]*pif.PIF, n)
	groups := make([]*engine.Group, n)
	for i := range groups {
		groups[i] = linktest.Host(t, Transport, core.ProcID(i), mkPIF(machines, core.ProcID(i), n), "127.0.0.1:0", make([]string, n))
	}
	for i, g := range groups {
		for j, other := range groups {
			if i != j {
				if err := g.Node().SetPeer(core.ProcID(j), other.Node().Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var barrier, started sync.WaitGroup
	barrier.Add(1)
	for _, g := range groups {
		node := g.Node()
		started.Add(1)
		go func() {
			barrier.Wait()
			node.Start()
			started.Done()
		}()
	}
	barrier.Done()
	started.Wait()
	linktest.Broadcast(t, groups[0].Do, machines[0], core.Payload{Tag: "race", Num: 9})
}

// TestRedialAfterPeerRestart kills one node, rebinds a fresh node (fresh
// protocol state) on the same address, and requires a broadcast to
// complete afterwards with the survivor's redial counter advanced: a
// peer's crash-and-restart is absorbed as message loss plus a redial.
func TestRedialAfterPeerRestart(t *testing.T) {
	// Not parallel: shares the loopback path, and rebinds a fixed port.
	const n = 2
	machines := make([]*pif.PIF, n)
	groups := make([]*engine.Group, n)
	for i := range groups {
		groups[i] = linktest.Host(t, Transport, core.ProcID(i), mkPIF(machines, core.ProcID(i), n), "127.0.0.1:0", make([]string, n))
	}
	node0, node1 := groups[0].Node(), groups[1].Node()
	addr1 := node1.Addr()
	wire := func(node *engine.Node, peer core.ProcID, addr string) {
		t.Helper()
		if err := node.SetPeer(peer, addr); err != nil {
			t.Fatal(err)
		}
	}
	wire(node0, 1, addr1)
	wire(node1, 0, node0.Addr())
	node0.Start()
	node1.Start()

	linktest.Broadcast(t, groups[0].Do, machines[0], core.Payload{Tag: "before", Num: 1})

	node1.Stop()
	// Rebind the same port. The listener was closed, not left in
	// TIME_WAIT, so the bind should succeed promptly; retry briefly in
	// case the kernel lags.
	var g *engine.Group
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		if g, err = engine.Host(Transport, 1, mkPIF(machines, 1, n), addr1, make([]string, n)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted := g.Node()
	t.Cleanup(restarted.Stop)
	wire(restarted, 0, node0.Addr())
	linktest.CheckWindows(t, linktest.Groups{g})
	restarted.Start()

	linktest.Broadcast(t, groups[0].Do, machines[0], core.Payload{Tag: "after", Num: 2})
	if got := groups[0].Stats().Redials; got == 0 {
		t.Fatalf("Redials = %d after a peer restart, want > 0", got)
	}
}

// TestTCPMeshKeepsToTopology: a dedicated cluster's nodes wire only
// their topology's edges, so on a line 0 - 1 - 2 node 0 starts one
// writer, toward peer 1, and the meshes run four writers, not six,
// counted by creator frame (a goroutine that has not run yet shows only
// that); a PIF broadcast over both edges still decides.
func TestTCPMeshKeepsToTopology(t *testing.T) {
	// Not parallel: shares the loopback path, and counts goroutines.
	const n = 3
	line := core.Line(n)
	var mu sync.Mutex
	meshes := make([]*mesh, n)
	capture := engine.Transport{FaultSalt: Transport.FaultSalt, Bind: func(cfg engine.LinkConfig) (engine.Link, error) {
		l, err := bind(cfg)
		if err == nil {
			mu.Lock()
			meshes[cfg.Self] = l.(*mesh)
			mu.Unlock()
		}
		return l, err
	}}
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := range stacks {
		self := core.ProcID(i)
		machines[i] = pif.New("pif", self, n, pif.Callbacks{}, pif.WithCapacityBound(engine.DefaultCapacity),
			pif.WithPeers(line.Neighbors(self)))
		stacks[i] = core.Stack{machines[i]}
	}
	before := linktest.Goroutines(nil)
	c, err := engine.NewCluster(capture, stacks, engine.WithTopology(line))
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	defer c.Close()
	// A mesh's Start runs one writer per wired link and one acceptor.
	started := linktest.Goroutines(before, "/transport/tcp.(*mesh).Start in goroutine ")
	if want := 2*len(line.Edges()) + n; len(started) != want {
		t.Fatalf("the meshes started %d goroutines on a line of %d edges, want %d: a writer per edge end, an acceptor per node",
			len(started), len(line.Edges()), want)
	}
	for p, l := range meshes[0].out {
		if wired := l != nil; wired != (p == 1) {
			t.Fatalf("node 0 wired toward peer %d: %v, want a writer toward peer 1 only", p, wired)
		}
	}
	at1 := func(f func(core.Env)) { c.Do(1, f) }
	linktest.Broadcast(t, at1, machines[1], core.Payload{Tag: "line", Num: 1})
}

// TestHalfOpenConnectionsDoNotWedge connects raw sockets that go silent
// after (a) a valid hello and (b) garbage, and verifies the node keeps
// serving protocol traffic and that Stop returns promptly with the
// half-open connections still registered.
func TestHalfOpenConnectionsDoNotWedge(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 3
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
	}
	c, err := engine.NewCluster(Transport, stacks)
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()

	// A liar claiming to be process 1 (a real peer), then silence: the
	// reader blocks on the next frame forever.
	liar, err := net.Dial("tcp", c.TransportStats()[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer liar.Close()
	hello := []byte{0, 0, 0, 0}
	hello, err = wire.AppendEncode(hello, core.Message{
		Instance: helloInstance, Kind: "HELLO", B: core.Payload{Num: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hello[:4], uint32(len(hello)-4))
	if _, err := liar.Write(hello); err != nil {
		t.Fatal(err)
	}

	// A babbler: a length prefix promising more than maxFrame, which the
	// reader must reject without allocating it.
	babbler, err := net.Dial("tcp", c.TransportStats()[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer babbler.Close()
	if _, err := babbler.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}

	// The node still serves real traffic around both.
	linktest.Broadcast(t, linktest.At0(c), machines[0], core.Payload{Tag: "alive", Num: 6})

	// Stop must unblock the half-open readers and return promptly.
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
		closed = true
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged on half-open connections")
	}
}

func TestStopIdempotent(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	g, err := engine.Host(Transport, 0, mkPIF(machines, 0, 2), "127.0.0.1:0", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	node := g.Node()
	node.Start()
	node.Stop()
	node.Stop() // second Stop must be a no-op, not a panic or deadlock

	stacks := make([]core.Stack, 2)
	for i := 0; i < 2; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), 2)
	}
	c, err := engine.NewCluster(Transport, stacks)
	if err != nil {
		t.Fatal(err)
	}
	linktest.CheckWindows(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), 2)
	}
	h, err := NewHost(HostConfig{Self: 0, Peers: make([]string, 2)}, stacks)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendAfterStopCountsDrops pins the silent-swallow path: sends on a
// stopped node land in SendDrops, never block, never panic.
func TestSendAfterStopCountsDrops(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	g := linktest.Host(t, Transport, 0, mkPIF(machines, 0, 2), "127.0.0.1:0", []string{"", "127.0.0.1:9"})
	g.Node().Start()
	g.Node().Stop()
	const attempts = 3
	g.Do(func(env core.Env) {
		for i := 0; i < attempts; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	// The writer may have died before or after taking frames off the
	// queue; either way nothing may be counted as both sent and dropped.
	s := g.Stats()
	if s.Sends+s.SendDrops != attempts {
		t.Fatalf("Sends (%d) + SendDrops (%d) = %d, want %d", s.Sends, s.SendDrops, s.Sends+s.SendDrops, attempts)
	}
}

// TestResetPeerCountsEachSendOnce: a peer that accepts every connection
// and resets it makes the writer lose frames. Once the writer is idle,
// every EvSend is counted exactly once — in Sends if its frame's write
// succeeded, as an EvSendLost with the link's note if not — never both.
func TestResetPeerCountsEachSendOnce(t *testing.T) {
	// Not parallel: shares the loopback path.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, _, _ = readFrame(bufio.NewReader(conn), nil) // the hello
			_ = conn.(*net.TCPConn).SetLinger(0)            // close with a reset
			conn.Close()
		}
	}()
	var sends, linkLost atomic.Int64
	const k = 200
	g := linktest.Host(t, Transport, 0, core.Stack{&linktest.Recorder{Inst: "rec"}}, "127.0.0.1:0", []string{"", ln.Addr().String()},
		engine.WithCapacity(k), engine.WithObserver(core.ObserverFunc(func(e core.Event) {
			switch {
			case e.Kind == core.EvSend:
				sends.Add(1)
			case e.Kind == core.EvSendLost && e.Note != "window":
				linkLost.Add(1)
			}
		})))
	g.Node().Start()
	for i := 0; i < k; i++ {
		g.Do(func(env core.Env) {
			env.Send(1, core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i)}})
		})
		time.Sleep(200 * time.Microsecond)
	}
	var s core.TransportStats
	once := waitFor(t, 10*time.Second, func() bool {
		s = g.Stats()
		return s.Sends+linkLost.Load() == sends.Load() && s.SendDrops == linkLost.Load()
	})
	if linkLost.Load() == 0 {
		t.Fatal("no frame was lost: the peer's resets never failed a write")
	}
	if !once {
		t.Fatalf("%d EvSend, but Sends = %d and %d EvSendLost on the link (SendDrops = %d): a message counted twice or not at all",
			sends.Load(), s.Sends, linkLost.Load(), s.SendDrops)
	}
}

func TestNodeValidation(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	stack := mkPIF(machines, 0, 2)
	if _, err := engine.Host(Transport, 5, stack, "127.0.0.1:0", []string{"a", "b"}); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := engine.Host(Transport, 0, stack, "127.0.0.1:0", make([]string, 2), engine.WithCapacity(0)); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := engine.NewCluster(Transport, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewHost(HostConfig{Self: 7, Peers: make([]string, 2)}, []core.Stack{stack, stack}); err == nil {
		t.Fatal("out-of-range host self accepted")
	}
	if _, err := NewHost(HostConfig{Self: 0, Peers: make([]string, 3)}, []core.Stack{stack, stack}); err == nil {
		t.Fatal("mismatched peer list accepted")
	}
}
