package tcp

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// rawPeer is a hand-driven stand-in for peer 1 of a two-process system:
// a listener the node dials (the node's frames arrive there) and a
// connection into the node, dialed on first use (frames for the node
// leave through it). It is this package's linktest.RawPeer.
type rawPeer struct {
	t   *testing.T
	g   *engine.Group
	ln  net.Listener
	in  net.Conn      // accepted from the node
	src *bufio.Reader // over in
	out net.Conn      // dialed to the node
}

func newRawPeer(t *testing.T, stack core.Stack, opts ...engine.Option) linktest.RawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{t: t, ln: ln}
	t.Cleanup(func() { // after the node's Stop
		p.hangUp()
		ln.Close()
	})
	p.g = linktest.Host(t, Transport, 0, stack, "127.0.0.1:0", []string{"", ln.Addr().String()}, opts...)
	p.g.Node().Start()
	p.accept()
	return p
}

func (p *rawPeer) Group() *engine.Group { return p.g }

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
	conn, err := net.Dial("tcp", p.g.Node().Addr())
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

// Send writes one link frame into the node.
func (p *rawPeer) Send(links []wire.LinkHeader, msgs ...core.Message) {
	p.t.Helper()
	if p.out == nil {
		p.dial()
	}
	frame, err := wire.AppendLinkFrame([]byte{0, 0, 0, 0}, 0, links, msgs)
	if err != nil {
		p.t.Fatal(err)
	}
	p.write(frame)
}

func (p *rawPeer) hangUp() {
	if p.in != nil {
		p.in.Close()
	}
	if p.out != nil {
		p.out.Close()
		p.out = nil
	}
}

// Restart drops both connections; the node's writer redials.
func (p *rawPeer) Restart() {
	p.hangUp()
	p.accept()
}

// Next reads the node's next link frame within d.
func (p *rawPeer) Next(d time.Duration) (links []wire.LinkHeader, msgs []core.Message, ok bool) {
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

// Not parallel: these share the loopback path.

func TestSilentPeerSeesAtMostCMessages(t *testing.T) {
	linktest.SilentPeerSeesAtMostCMessages(t, suite)
}

func TestProbeReopensShutWindow(t *testing.T) {
	p := linktest.ProbeReopensShutWindow(t, suite)
	if got := p.Group().Stats().Redials; got == 0 {
		t.Fatal("the node never redialed its restarted peer")
	}
}

func TestReboxOverflowIsLost(t *testing.T) { linktest.ReboxOverflowIsLost(t, suite) }
func TestOneFramePerSection(t *testing.T)  { linktest.OneFramePerSection(t, suite) }
func TestFrameAtBudget(t *testing.T)       { linktest.FrameAtBudget(t, suite) }
