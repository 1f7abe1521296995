package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

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

// rawPeer is a hand-driven stand-in for peer 1 of a two-process system:
// a listener the node dials (the node's frames arrive there) and, once
// dialed, a connection into the node (echoes leave through it).
type rawPeer struct {
	t    *testing.T
	node *Node
	ln   net.Listener
	in   net.Conn      // accepted from the node
	src  *bufio.Reader // over in
	out  net.Conn      // dialed to the node
}

// initiatorAtRawPeer starts a real node whose PIF initiator broadcasts
// toward a rawPeer.
func initiatorAtRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := pif.New("pif", 0, 2, pif.Callbacks{}, pif.WithCapacityBound(DefaultCapacity))
	node, err := NewNode(0, core.Stack{m}, "127.0.0.1:0", []string{"", ln.Addr().String()},
		WithDialBackoff(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	p := &rawPeer{t: t, node: node, ln: ln}
	checkWindows(t, nodeStats{node})
	node.Start()
	t.Cleanup(func() {
		node.Stop()
		p.hangUp()
		ln.Close()
	})
	node.Do(func(env core.Env) {
		if !m.Invoke(env, core.Payload{Tag: "hello", Num: 1}) {
			t.Error("Invoke rejected")
		}
	})
	p.accept()
	return p
}

// accept takes the node's next connection and consumes its hello.
func (p *rawPeer) accept() {
	p.t.Helper()
	conn, err := p.ln.Accept()
	if err != nil {
		p.t.Fatal(err)
	}
	p.in, p.src = conn, bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, _, err := readFrame(p.src, nil)
	if err != nil {
		p.t.Fatalf("no hello from the node: %v", err)
	}
	if m, err := wire.Decode(frame); err != nil || m.Instance != helloInstance {
		p.t.Fatalf("connection opened with %v (%v), want a hello", m, err)
	}
}

// dial connects to the node as peer 1.
func (p *rawPeer) dial() {
	p.t.Helper()
	conn, err := net.Dial("tcp", p.node.Addr())
	if err != nil {
		p.t.Fatal(err)
	}
	p.out = conn
	hello, err := wire.AppendEncode([]byte{0, 0, 0, 0}, core.Message{
		Instance: helloInstance, Kind: "HELLO", B: core.Payload{Num: 1},
	})
	if err != nil {
		p.t.Fatal(err)
	}
	p.write(hello)
}

// write sends one frame (four bytes of prefix room included).
func (p *rawPeer) write(frame []byte) {
	p.t.Helper()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	if _, err := p.out.Write(frame); err != nil {
		p.t.Fatal(err)
	}
}

func (p *rawPeer) hangUp() {
	if p.in != nil {
		p.in.Close()
	}
	if p.out != nil {
		p.out.Close()
	}
}

// next reads the node's next link frame within d.
func (p *rawPeer) next(d time.Duration) (links []wire.LinkHeader, msgs []core.Message, ok bool) {
	p.t.Helper()
	_ = p.in.SetReadDeadline(time.Now().Add(d))
	frame, _, err := readFrame(p.src, nil)
	if err != nil {
		return nil, nil, false
	}
	_, links, msgs, err = wire.DecodeLinkFrame(nil, nil, frame)
	if err != nil {
		p.t.Fatalf("node wrote a frame that is not a link frame: %v", err)
	}
	return links, msgs, true
}

// drain reads what the node has written and what it writes in the next
// 100ms (probes never stop) and returns the messages and probes seen.
func (p *rawPeer) drain() (data, probes int) {
	for until := time.Now().Add(100 * time.Millisecond); time.Now().Before(until); {
		links, msgs, ok := p.next(20 * time.Millisecond)
		if !ok {
			continue
		}
		data += len(msgs)
		for _, h := range links {
			if h.Probe {
				probes++
			}
		}
	}
	return data, probes
}

// TestSilentPeerSeesAtMostCMessages is the capacity bound observed from
// outside: an initiator retransmitting every step toward a peer that
// reads nothing must leave at most c messages in that peer's connection.
// Without the window the step timer alone puts ~150 there in 300ms.
func TestSilentPeerSeesAtMostCMessages(t *testing.T) {
	// Not parallel: shares the loopback path.
	p := initiatorAtRawPeer(t)
	time.Sleep(300 * time.Millisecond)
	data, probes := p.drain()
	if data < 1 || data > DefaultCapacity {
		t.Fatalf("silent peer was sent %d messages, want 1..%d", data, DefaultCapacity)
	}
	if probes == 0 {
		t.Fatal("a shut window under retransmission sent no probe")
	}
}

// reopens answers the node's probes and reports how many more probes
// arrived before fresh data did: the link must reopen within two probe
// intervals of the first answer.
func (p *rawPeer) reopens() int {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	answered, extra := false, 0
	for time.Now().Before(deadline) {
		links, msgs, ok := p.next(time.Second)
		if !ok {
			continue
		}
		if answered && len(msgs) > 0 {
			return extra
		}
		for _, h := range links {
			if !h.Probe {
				continue
			}
			if answered {
				extra++
			}
			answered = true
			echo, err := wire.AppendLinkFrame([]byte{0, 0, 0, 0}, 0,
				[]wire.LinkHeader{{Instance: h.Instance, Ack: h.Seq}}, nil)
			if err != nil {
				p.t.Fatal(err)
			}
			p.write(echo)
		}
	}
	p.t.Fatal("window never reopened after the peer answered a probe")
	return 0
}

// TestProbeReopensShutWindow: the peer swallows everything — no echo
// ever comes back — then starts answering probes; and then is replaced
// by fresh connections with no memory of the link. Neither a lost echo
// nor a restarted peer may wedge the window.
func TestProbeReopensShutWindow(t *testing.T) {
	// Not parallel: shares the loopback path.
	p := initiatorAtRawPeer(t)
	time.Sleep(50 * time.Millisecond)
	p.drain()
	p.dial()
	if extra := p.reopens(); extra > 2 {
		t.Fatalf("window reopened only after %d further probes, want <= 2", extra)
	}

	p.hangUp()
	p.accept() // the node's writer redials
	p.dial()
	if extra := p.reopens(); extra > 2 {
		t.Fatalf("after a restart the window reopened only after %d further probes, want <= 2", extra)
	}
	if got := p.node.Stats().Redials; got == 0 {
		t.Fatal("the node never redialed its restarted peer")
	}
}
