package udp

import (
	"net"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// rawPeer pairs a node with a hand-driven UDP socket standing in for
// peer 1, so tests can watch the node's exact wire bytes and feed it
// arbitrary frames. It is this package's linktest.RawPeer.
type rawPeer struct {
	t   *testing.T
	g   *engine.Group
	raw *net.UDPConn
}

func newRawPeer(t *testing.T, stack core.Stack, opts ...engine.Option) linktest.RawPeer {
	t.Helper()
	g := linktest.Host(t, Transport, 0, stack, "127.0.0.1:0", make([]string, 2), opts...)
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := g.Node().SetPeer(1, raw.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	g.Node().Start()
	return &rawPeer{t: t, g: g, raw: raw}
}

// recorderAtRawPeer is a raw peer whose node delivers into a recorder.
func recorderAtRawPeer(t *testing.T, opts ...engine.Option) (*rawPeer, *linktest.Recorder) {
	rec := &linktest.Recorder{Inst: "rec"}
	return newRawPeer(t, core.Stack{rec}, opts...).(*rawPeer), rec
}

func (p *rawPeer) Group() *engine.Group { return p.g }

// Send fires one link frame at the node.
func (p *rawPeer) Send(links []wire.LinkHeader, msgs ...core.Message) {
	p.t.Helper()
	data, err := wire.AppendLinkFrame(nil, 0, links, msgs)
	if err != nil {
		p.t.Fatal(err)
	}
	p.write(data)
}

func (p *rawPeer) write(data []byte) {
	p.t.Helper()
	if _, err := p.raw.WriteToUDP(data, mustUDPAddr(p.t, p.g.Node().Addr())); err != nil {
		p.t.Fatal(err)
	}
}

// Next reads the raw peer's next datagram within d and decodes it.
func (p *rawPeer) Next(d time.Duration) (links []wire.LinkHeader, msgs []core.Message, ok bool) {
	p.t.Helper()
	buf := make([]byte, 64*1024)
	_ = p.raw.SetReadDeadline(time.Now().Add(d))
	sz, _, err := p.raw.ReadFromUDP(buf)
	if err != nil {
		return nil, nil, false
	}
	_, links, msgs, err = wire.DecodeLinkFrame(nil, nil, buf[:sz])
	if err != nil {
		p.t.Fatalf("node emitted a datagram that is not a link frame: %v", err)
	}
	return links, msgs, true
}

// Restart closes the socket and, once the node has filled its window
// toward nobody, binds a fresh one on the same address.
func (p *rawPeer) Restart() {
	p.t.Helper()
	addr := p.raw.LocalAddr().(*net.UDPAddr)
	p.raw.Close()
	time.Sleep(50 * time.Millisecond)
	fresh, err := net.ListenUDP("udp", addr)
	if err != nil {
		p.t.Fatal(err)
	}
	p.raw = fresh
}

// TestBatchOneIsOneLinkFramePerMessage pins the engine.WithBatch(1) contract at
// the socket: every message leaves at once in a link frame of its own,
// numbered consecutively on its link — and a bare pre-v4 frame from a
// peer that cannot acknowledge is dropped, not delivered.
func TestBatchOneIsOneLinkFramePerMessage(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	// c = 2: both messages go out on one link before any acknowledgment.
	p, rec := recorderAtRawPeer(t, engine.WithBatch(1), engine.WithCapacity(2))
	g := p.g
	out := []core.Message{
		{Instance: "rec", Kind: "K", B: core.Payload{Tag: "m", Num: 42, Blob: []byte("body")}},
		{Instance: "rec", Kind: "K", B: core.Payload{Tag: "m", Num: 43}},
	}
	g.Do(func(env core.Env) {
		for _, m := range out {
			env.Send(1, m)
		}
	})
	var first uint64
	for i, want := range out {
		links, msgs, ok := p.Next(5 * time.Second)
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
	p.write(legacy)
	p.Send([]wire.LinkHeader{{Instance: "rec", Seq: 1}}, in)
	if !waitFor(t, 5*time.Second, func() bool { return len(rec.Snapshot()) == 1 }) {
		t.Fatal("link frame was not delivered")
	}
	if got := rec.Snapshot(); len(got) != 1 || !got[0].Equal(in) {
		t.Fatalf("delivered %v, want only %v", got, in)
	}
}

// TestBatchedSendCoalescesAndCounts pins the amortization arithmetic: a
// burst of sends to one destination inside one atomic section leaves as
// a single link frame, and the datagram/syscall counters expose it.
func TestBatchedSendCoalescesAndCounts(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	const burst = 10
	p, _ := recorderAtRawPeer(t, engine.WithCapacity(burst)) // default batching
	g := p.g
	g.Do(func(env core.Env) {
		for i := 0; i < burst; i++ {
			env.Send(1, core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i)}})
		}
	})
	links, msgs, ok := p.Next(5 * time.Second)
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
	s := g.Stats()
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
// peer is unpacked into individual mailbox deliveries: a full mailbox of
// c messages, one of them with a body.
func TestLinkFrameDeliveredPerMessage(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	p, rec := recorderAtRawPeer(t)
	msgs := make([]core.Message, engine.DefaultCapacity)
	for i := range msgs {
		msgs[i] = core.Message{Instance: "rec", Kind: "K", B: core.Payload{Num: int64(i + 1)}}
	}
	msgs[len(msgs)-1].B.Blob = []byte("x")
	p.Send([]wire.LinkHeader{{Instance: "rec", Seq: 3}}, msgs...)
	if !waitFor(t, 5*time.Second, func() bool { return len(rec.Snapshot()) == len(msgs) }) {
		t.Fatalf("link frame delivered %d of %d messages", len(rec.Snapshot()), len(msgs))
	}
	for i, m := range rec.Snapshot() {
		if !m.Equal(msgs[i]) {
			t.Fatalf("delivery %d = %v, want %v", i, m, msgs[i])
		}
	}
	s := p.g.Stats()
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
