package udp

import (
	"net"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/wire"
)

// initiatorAtRawPeer starts a real node whose PIF initiator broadcasts
// toward a hand-driven socket standing in for peer 1.
func initiatorAtRawPeer(t *testing.T) (*Node, *net.UDPConn) {
	t.Helper()
	m := pif.New("pif", 0, 2, pif.Callbacks{}, pif.WithCapacityBound(DefaultCapacity))
	node, err := NewNode(0, core.Stack{m}, "127.0.0.1:0", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		node.Stop()
		t.Fatal(err)
	}
	node.SetPeer(1, raw.LocalAddr().(*net.UDPAddr))
	node.Start()
	checkWindows(t, nodeStats{node})
	t.Cleanup(node.Stop)
	node.Do(func(env core.Env) {
		if !m.Invoke(env, core.Payload{Tag: "hello", Num: 1}) {
			t.Error("Invoke rejected")
		}
	})
	return node, raw
}

// drain reads what is queued at raw and what arrives in the next 100ms
// (probes never stop) and returns the data messages and probes seen.
func drain(t *testing.T, raw *net.UDPConn) (data, probes int) {
	t.Helper()
	for until := time.Now().Add(100 * time.Millisecond); time.Now().Before(until); {
		links, msgs, ok := readLinkFrame(t, raw, 20*time.Millisecond)
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
// reads nothing must leave at most c messages in that peer's socket.
// Without the window the step timer alone puts ~150 there in 300ms.
func TestSilentPeerSeesAtMostCMessages(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	_, raw := initiatorAtRawPeer(t)
	defer raw.Close()
	time.Sleep(300 * time.Millisecond)
	data, probes := drain(t, raw)
	if data < 1 || data > DefaultCapacity {
		t.Fatalf("silent peer was sent %d messages, want 1..%d", data, DefaultCapacity)
	}
	if probes == 0 {
		t.Fatal("a shut window under retransmission sent no probe")
	}
}

// reopens answers the node's probes from raw and reports how many more
// probes arrived before fresh data did: the link must reopen within two
// probe intervals of the first answer.
func reopens(t *testing.T, raw *net.UDPConn, node *Node) int {
	t.Helper()
	target := mustUDPAddr(t, node.Addr())
	deadline := time.Now().Add(5 * time.Second)
	answered, extra := false, 0
	for time.Now().Before(deadline) {
		links, msgs, ok := readLinkFrame(t, raw, time.Second)
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
			echo := linkFrame(t, 0, wire.LinkHeader{Instance: h.Instance, Ack: h.Seq})
			if _, err := raw.WriteToUDP(echo, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatal("window never reopened after the peer answered a probe")
	return 0
}

// TestProbeReopensShutWindow: the peer swallows everything — no echo
// ever comes back — then starts answering probes; and then is replaced
// by a fresh socket on the same address with no memory of the link.
// Neither a lost echo nor a restarted peer may wedge the window.
func TestProbeReopensShutWindow(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	node, raw := initiatorAtRawPeer(t)
	time.Sleep(50 * time.Millisecond)
	drain(t, raw)
	if extra := reopens(t, raw, node); extra > 2 {
		t.Fatalf("window reopened only after %d further probes, want <= 2", extra)
	}

	addr := raw.LocalAddr().(*net.UDPAddr)
	raw.Close()
	time.Sleep(50 * time.Millisecond) // the node fills its window toward nobody
	fresh, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if extra := reopens(t, fresh, node); extra > 2 {
		t.Fatalf("after a restart the window reopened only after %d further probes, want <= 2", extra)
	}
}
