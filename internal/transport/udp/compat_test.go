package udp

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/wire"
)

// recorder is a sink machine: it keeps every delivered message.
type recorder struct {
	inst string
	mu   sync.Mutex
	got  []core.Message
}

func (r *recorder) Instance() string   { return r.inst }
func (r *recorder) Step(core.Env) bool { return false }
func (r *recorder) Deliver(_ core.Env, _ core.ProcID, m core.Message) {
	r.mu.Lock()
	r.got = append(r.got, m)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []core.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.Message(nil), r.got...)
}

// rawPeer pairs a node with a hand-driven UDP socket standing in for
// peer 1, so tests can watch the node's exact wire bytes and feed it
// arbitrary frames.
func rawPeer(t *testing.T, opts ...Option) (*Node, *recorder, *net.UDPConn) {
	t.Helper()
	rec := &recorder{inst: "rec"}
	node, err := NewNode(0, core.Stack{rec}, "127.0.0.1:0", make([]string, 2), opts...)
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
	t.Cleanup(func() { node.Stop(); raw.Close() })
	return node, rec, raw
}

// linkFrame hand-builds one wire v4 frame carrying msgs (all of one
// instance, possibly none) under a single link header.
func linkFrame(t *testing.T, gid uint64, h wire.LinkHeader, msgs ...core.Message) []byte {
	t.Helper()
	data, err := wire.AppendLinkFrame(nil, gid, []wire.LinkHeader{h}, msgs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readLinkFrame reads the raw peer's next datagram within d and decodes
// it; ok is false when nothing arrived in time.
func readLinkFrame(t *testing.T, raw *net.UDPConn, d time.Duration) (links []wire.LinkHeader, msgs []core.Message, ok bool) {
	t.Helper()
	buf := make([]byte, 64*1024)
	_ = raw.SetReadDeadline(time.Now().Add(d))
	sz, _, err := raw.ReadFromUDP(buf)
	if err != nil {
		return nil, nil, false
	}
	_, links, msgs, err = wire.DecodeLinkFrame(nil, nil, buf[:sz])
	if err != nil {
		t.Fatalf("node emitted a datagram that is not a link frame: %v", err)
	}
	return links, msgs, true
}

// TestBatchOneIsOneLinkFramePerMessage pins the WithBatch(1) contract at
// the socket: every message leaves at once in a link frame of its own,
// numbered consecutively on its link — and a bare pre-v4 frame from a
// peer that cannot acknowledge is dropped, not delivered.
func TestBatchOneIsOneLinkFramePerMessage(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	node, rec, raw := rawPeer(t, WithBatch(1))
	out := []core.Message{
		{Instance: "rec", Kind: "K", B: core.Payload{Tag: "m", Num: 42, Blob: []byte("body")}},
		{Instance: "rec", Kind: "K", B: core.Payload{Tag: "m", Num: 43}},
	}
	node.Do(func(env core.Env) {
		for _, m := range out {
			env.Send(1, m)
		}
	})
	var first uint64
	for i, want := range out {
		links, msgs, ok := readLinkFrame(t, raw, 5*time.Second)
		if !ok {
			t.Fatalf("no datagram %d from the batch=1 node", i)
		}
		if len(links) != 1 || links[0].Instance != "rec" || len(msgs) != 1 || !msgs[0].Equal(want) {
			t.Fatalf("datagram %d = %+v %v, want one %q header over %v", i, links, msgs, "rec", want)
		}
		if i == 0 {
			first = links[0].Seq
		} else if links[0].Seq != first+uint64(i) {
			t.Fatalf("datagram %d numbered %d, want %d", i, links[0].Seq, first+uint64(i))
		}
	}

	// The reverse direction: a legacy frame is refused, a link frame lands.
	legacy, err := wire.Encode(core.Message{Instance: "rec", Kind: "K", B: core.Payload{Tag: "legacy", Num: 7}})
	if err != nil {
		t.Fatal(err)
	}
	in := core.Message{Instance: "rec", Kind: "K", B: core.Payload{Tag: "windowed", Num: 8}}
	for _, data := range [][]byte{legacy, linkFrame(t, 0, wire.LinkHeader{Instance: "rec", Seq: 1}, in)} {
		if _, err := raw.WriteToUDP(data, mustUDPAddr(t, node.Addr())); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(rec.snapshot()) == 1 }) {
		t.Fatal("link frame was not delivered")
	}
	if got := rec.snapshot(); len(got) != 1 || !got[0].Equal(in) {
		t.Fatalf("delivered %v, want only %v", got, in)
	}
}

// TestBatchedSendCoalescesAndCounts pins the amortization arithmetic: a
// burst of sends to one destination inside one atomic section leaves as
// a single link frame, and the datagram/syscall counters expose it.
func TestBatchedSendCoalescesAndCounts(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	const burst = 10
	node, _, raw := rawPeer(t, WithCapacity(burst)) // default batching
	node.Do(func(env core.Env) {
		for i := 0; i < burst; i++ {
			env.Send(1, core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i)}})
		}
	})
	links, msgs, ok := readLinkFrame(t, raw, 5*time.Second)
	if !ok {
		t.Fatal("no datagram")
	}
	if len(links) != 1 || links[0].Count != burst || len(msgs) != burst {
		t.Fatalf("burst arrived under %+v with %d messages, want one header over %d", links, len(msgs), burst)
	}
	for i, m := range msgs {
		if m.B.Num != int64(i) {
			t.Fatalf("record %d carries Num %d: batch reordered", i, m.B.Num)
		}
	}
	s := node.Stats()
	if s.Sends != burst {
		t.Fatalf("Sends = %d, want %d", s.Sends, burst)
	}
	if s.SendDatagrams != 1 {
		t.Fatalf("SendDatagrams = %d for one coalesced burst, want 1", s.SendDatagrams)
	}
	if s.SendSyscalls != 1 {
		t.Fatalf("SendSyscalls = %d for one coalesced burst, want 1", s.SendSyscalls)
	}
}

// TestLinkFrameDeliveredPerMessage: a hand-built link frame from a known
// peer is unpacked into individual mailbox deliveries.
func TestLinkFrameDeliveredPerMessage(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	node, rec, raw := rawPeer(t)
	msgs := []core.Message{
		{Instance: "rec", Kind: "K", B: core.Payload{Num: 1}},
		{Instance: "rec", Kind: "K", B: core.Payload{Num: 2, Blob: []byte("x")}},
		{Instance: "rec", Kind: "K", B: core.Payload{Num: 3}},
	}
	data := linkFrame(t, 0, wire.LinkHeader{Instance: "rec", Seq: 3}, msgs...)
	if _, err := raw.WriteToUDP(data, mustUDPAddr(t, node.Addr())); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(rec.snapshot()) == len(msgs) }) {
		t.Fatalf("link frame delivered %d of %d messages", len(rec.snapshot()), len(msgs))
	}
	for i, m := range rec.snapshot() {
		if !m.Equal(msgs[i]) {
			t.Fatalf("delivery %d = %v, want %v", i, m, msgs[i])
		}
	}
	s := node.Stats()
	if s.Recvs != int64(len(msgs)) || s.RecvDatagrams != 1 {
		t.Fatalf("Recvs = %d, RecvDatagrams = %d; want %d and 1", s.Recvs, s.RecvDatagrams, len(msgs))
	}
}

func mustUDPAddr(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
