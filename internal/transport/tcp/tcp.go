// Package tcp is the stream link of the socket engine
// (internal/transport/engine): protocol stacks over persistent TCP
// connections — the multi-host deployment substrate. Nodes on different
// machines dial each other, stream length-prefixed wire frames, and
// survive connection loss with exponential-backoff redial, so a snapd
// fleet can span real hosts. The engine owns the channel semantics (the
// capacity window, the mailboxes, the fault plane, groups); this package
// owns the connections, and Host (host.go), the one-process-per-daemon
// substrate.
//
// # Channel semantics on TCP
//
// TCP provides reliable in-order delivery per connection — but the
// model's channels are lossy with a KNOWN capacity bound. The engine's
// window restores the bound; this package restores the loss: each
// directed physical link (p -> q) is one connection dialed by p, fed
// through an outbound queue sized from c; a send caught by a dead or
// timed-out connection is dropped in transit, and a fresh connection is
// an empty channel (the receiver retires the peer's previous connection
// before reading the new one). Socket buffers and the outbound queue sit
// inside the window, so neither adds to the bound.
//
// Connection loss is therefore just message loss, which the protocols
// tolerate by design: the retransmitting action A2 keeps fresh copies
// coming while the writer redials, and snap-stabilization holds across a
// peer's crash and restart without any connection-level recovery
// protocol.
//
// # Wire framing
//
// Every frame on a connection is a 4-byte big-endian length prefix
// followed by one wire-encoded unit: the bare v1 hello that opens the
// connection, then the engine's wire v4 link frames — the same frames
// UDP sends as datagrams, packed and stamped by the engine, at most
// wire.MaxDatagram bytes each — whose uvarint group id the engine routes
// on.
//
// # Amortized socket IO
//
// Write renders each frame, length-prefixed, and queues it to its
// link's writer; it never blocks, so a blocking socket write can only
// stall its own link's writer goroutine, never a protocol action. When
// a writer wakes it drains every frame already queued on its link, up
// to sendVecCap, and hands them to the kernel as one vectored write
// (writev via net.Buffers), so a retransmission burst costs one
// syscall. A frame counts as sent once that write succeeded. Readers
// amortize symmetrically through a buffered reader sized to pull many
// frames per socket read.
//
// # Dial/accept lifecycle
//
// Each node listens on one TCP address and runs one writer goroutine per
// outgoing link. The writer owns the link's connection: it dials with
// exponential backoff (jitter-free, bounded), identifies itself with a
// hello frame, streams frames, and on any write error closes the
// connection and redials. The accept loop spawns one reader per inbound
// connection; the reader validates the hello (peer index, topology edge,
// and — when the peer's address is configured — the source host) and
// then hands frames to the engine. A peer restart simply kills both
// directions: the reader sees EOF and exits, the writer's next write
// fails and it redials until the new process accepts.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// Frame format: a 4-byte big-endian length prefix followed by one wire
// frame — the bare v1 hello, then v4 link frames. maxFrame bounds the
// declared length against memory exhaustion from a malformed or hostile
// peer: the engine's frames are datagram-sized. A violation is a
// protocol error and closes the connection.
const maxFrame = wire.MaxDatagram

// sendVecCap bounds how many queued frames one vectored write carries.
const sendVecCap = 32

// writeTimeout bounds every connect and frame write. A write that
// cannot complete within it is treated as a lost message and a lost
// connection.
const writeTimeout = 2 * time.Second

// helloInstance marks the identification frame that opens every dialed
// connection: a regular wire message whose B.Num carries the dialer's
// process index. It is consumed by the transport and never delivered.
const helloInstance = "tcp/hello"

// The redial backoff range: the first redial after a connection loss
// waits dialMin, doubling up to dialMax.
const (
	dialMin = 25 * time.Millisecond
	dialMax = time.Second
)

// Transport is this link, for the engine's constructors (engine.Host,
// NewCluster, NewMux). The salt namespaces the substrate's injector seeds
// (sim, runtime and udp use their own).
var Transport = engine.Transport{FaultSalt: 0x7c, Bind: bind}

// outFrame is one encoded frame queued on a link, with the tally its fate
// is reported to.
type outFrame struct {
	b    []byte
	fate engine.Tally
}

// sendQueueSlots sizes a connection's outbound queue from the capacity
// bound: eight (group, instance) links' worth of full windows plus a
// control frame each, at one message per frame. Every queued message
// holds a window slot, so the queue adds nothing to the bound; a node
// multiplexing more frames than that onto one connection sees the
// overflow as loss in transit.
func sendQueueSlots(capacity int) int { return 8 * (capacity + 1) }

// link is one outgoing directed edge: a bounded queue of encoded frames
// drained by a writer goroutine that owns the connection lifecycle.
type link struct {
	addr string
	q    chan outFrame
}

// mesh is one node's listener and connections: the engine.Link of this
// package. The engine calls Write under the node's action mutex only,
// which is what makes the queue-room check race-free.
type mesh struct {
	cfg engine.LinkConfig
	ln  net.Listener

	out []*link // indexed by peer; nil for self and unwired peers

	// connMu guards the accepted-connection registry used for teardown —
	// Stop closes every registered connection to unblock its reader — and
	// the per-peer record of the connection currently speaking for it.
	connMu   sync.Mutex
	accepted map[net.Conn]struct{}
	inbound  map[core.ProcID]*inboundConn
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// bind opens the node's listener.
func bind(cfg engine.LinkConfig) (engine.Link, error) {
	ms := &mesh{
		cfg:      cfg,
		out:      make([]*link, cfg.Peers),
		accepted: make(map[net.Conn]struct{}),
		inbound:  make(map[core.ProcID]*inboundConn),
		stop:     make(chan struct{}),
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %q: %w", cfg.Listen, err)
	}
	ms.ln = ln
	return ms, nil
}

func (ms *mesh) Addr() string { return ms.ln.Addr().String() }

func (ms *mesh) Wire(peer core.ProcID, addr string) error {
	ms.out[peer] = &link{addr: addr, q: make(chan outFrame, sendQueueSlots(ms.cfg.Capacity))}
	return nil
}

// Start launches the accept loop and one writer per wired link.
func (ms *mesh) Start() {
	for _, l := range ms.out {
		if l != nil {
			ms.wg.Add(1)
			go ms.writeLoop(l)
		}
	}
	ms.wg.Add(1)
	go ms.acceptLoop()
}

// framePool recycles encoded frames between Write (producer) and the
// writer goroutines (consumer), so steady-state sending allocates only
// when a frame outgrows its recycled buffer.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// Write length-prefixes every frame and queues it toward its peer. A
// frame that finds the queue full, or the link stopped, is lost in
// transit.
func (ms *mesh) Write(frames []engine.Frame) {
	for i := range frames {
		f := &frames[i]
		l := ms.out[f.To]
		select {
		case <-ms.stop:
			f.Lost("link stopped")
			continue
		default:
		}
		if len(l.q) == cap(l.q) {
			f.Lost("queue full")
			continue
		}
		bp := framePool.Get().(*[]byte)
		buf, err := wire.AppendLinkFrame(append((*bp)[:0], 0, 0, 0, 0), f.Group, f.Links, f.Msgs)
		if err != nil {
			framePool.Put(bp)
			f.Lost(err.Error())
			continue
		}
		binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
		//lint:ignore poolalias the queue hands the frame's ownership to the link's writer, which returns it to framePool after the write
		l.q <- outFrame{b: buf, fate: f.Tally}
	}
}

// helloFrame encodes this node's identification frame: a bare wire v1
// record, the one frame on a connection that is not a link frame.
func (ms *mesh) helloFrame() []byte {
	buf := []byte{0, 0, 0, 0}
	buf, err := wire.AppendEncode(buf, core.Message{
		Instance: helloInstance,
		Kind:     "HELLO",
		B:        core.Payload{Num: int64(ms.cfg.Self)},
	})
	if err != nil {
		panic("tcp: hello frame unencodable: " + err.Error())
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	//lint:ignore poolalias rendered into a fresh slice that the caller owns
	return buf
}

// dial establishes one connection for l: connect, enable keepalive (so a
// silently dead peer eventually fails the writer out of its connection),
// and identify with the hello frame.
func (ms *mesh) dial(l *link) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", l.addr, writeTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
		_ = tc.SetNoDelay(true)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(ms.helloFrame()); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeLoop owns l's connection lifecycle: dial with exponential
// backoff, stream frames, redial on any error. Each wake-up drains every
// frame already queued and hands the lot to the kernel as one vectored
// write (writev), so a burst costs one syscall, not one per frame. A
// frame caught by a write error is lost in transit — the model's message
// loss; the protocols' retransmission keeps fresh copies coming once the
// link is back. Each frame's fate is reported once, after its write or
// at Stop.
func (ms *mesh) writeLoop(l *link) {
	defer ms.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
		for {
			select {
			case f := <-l.q:
				f.fate.Lost("link stopped")
			default:
				return
			}
		}
	}()
	cnt := ms.cfg.IO
	backoff := dialMin
	dialed := 0
	batch := make([]outFrame, 0, sendVecCap)
	vec := make(net.Buffers, 0, sendVecCap)
	for {
		if conn == nil {
			c, err := ms.dial(l)
			if err != nil {
				select {
				case <-ms.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > dialMax {
					backoff = dialMax
				}
				continue
			}
			conn = c
			backoff = dialMin
			dialed++
			if dialed > 1 {
				cnt.Redials.Add(1)
			}
		}
		select {
		case <-ms.stop:
			return
		case f := <-l.q:
			batch = append(batch[:0], f)
		drain:
			for len(batch) < cap(batch) {
				select {
				case f2 := <-l.q:
					batch = append(batch, f2)
				default:
					break drain
				}
			}
			vec = vec[:0]
			for _, bf := range batch {
				vec = append(vec, bf.b)
			}
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := (&vec).WriteTo(conn)
			cnt.SendSyscalls.Add(1)
			// WriteTo consumed the written prefix of vec; what remains (a
			// partially written first frame included) was lost with the
			// connection.
			lost := len(vec)
			for _, bf := range batch {
				fp := bf.b[:0]
				framePool.Put(&fp)
			}
			for _, bf := range batch[:len(batch)-lost] {
				bf.fate.Sent()
			}
			if err != nil {
				conn.Close()
				conn = nil
				for _, bf := range batch[len(batch)-lost:] {
					bf.fate.Lost("connection lost")
				}
			}
		}
	}
}

// register adds an accepted connection to the teardown registry; a false
// return means the node already stopped and the caller must close conn.
func (ms *mesh) register(conn net.Conn) bool {
	ms.connMu.Lock()
	defer ms.connMu.Unlock()
	if ms.closed {
		return false
	}
	ms.accepted[conn] = struct{}{}
	return true
}

func (ms *mesh) unregister(conn net.Conn) {
	ms.connMu.Lock()
	delete(ms.accepted, conn)
	ms.connMu.Unlock()
}

// acceptLoop admits inbound connections and spawns one reader per
// connection. Transient accept errors back off briefly; the loop exits
// when the listener closes at Stop.
func (ms *mesh) acceptLoop() {
	defer ms.wg.Done()
	for {
		conn, err := ms.ln.Accept()
		if err != nil {
			select {
			case <-ms.stop:
				return
			case <-time.After(5 * time.Millisecond):
				continue
			}
		}
		if !ms.register(conn) {
			conn.Close()
			return
		}
		ms.wg.Add(1)
		go ms.readLoop(conn)
	}
}

// errBadHello rejects connections that do not open with a valid
// identification frame.
var errBadHello = errors.New("tcp: invalid hello")

// readHello consumes and validates the identification frame, returning
// the peer index the connection speaks for.
func (ms *mesh) readHello(conn net.Conn, src io.Reader, buf []byte) (core.ProcID, error) {
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, _, err := readFrame(src, buf)
	if err != nil {
		return 0, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	m, err := wire.Decode(frame)
	if err != nil || m.Instance != helloInstance || m.Kind != "HELLO" {
		return 0, errBadHello
	}
	id := core.ProcID(m.B.Num)
	if int64(id) != m.B.Num || int(id) < 0 || int(id) >= len(ms.out) || id == ms.cfg.Self {
		return 0, errBadHello
	}
	// The node's graph shapes the connection mesh itself; a mux node has
	// none, and its groups restrict traffic per message instead.
	if t := ms.cfg.Topology; t != nil && !t.HasEdge(id, ms.cfg.Self) {
		return 0, fmt.Errorf("tcp: peer %d is not a neighbour", id)
	}
	// When the peer's address is configured, the connection must come
	// from that host (ports are ephemeral on the dialing side). A fleet
	// config is therefore also a minimal allowlist; an unwired peer is
	// accepted on its own claim, mirroring UDP's unwired-sender drop in
	// reverse (TCP must accept before it can identify).
	if l := ms.out[id]; l != nil {
		wantHost, _, err1 := net.SplitHostPort(l.addr)
		gotHost, _, err2 := net.SplitHostPort(conn.RemoteAddr().String())
		if err1 == nil && err2 == nil {
			wip, gip := net.ParseIP(wantHost), net.ParseIP(gotHost)
			if wip != nil && gip != nil && !wip.IsUnspecified() && !wip.Equal(gip) {
				return 0, fmt.Errorf("tcp: peer %d dialed from %s, configured at %s", id, gotHost, wantHost)
			}
		}
	}
	return id, nil
}

// readFrame reads one length-prefixed frame into buf (growing it as
// needed) and returns its bytes, which alias the returned buffer.
func readFrame(r io.Reader, buf []byte) (frame, grown []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	sz := binary.BigEndian.Uint32(hdr[:])
	if sz == 0 || sz > maxFrame {
		return nil, buf, fmt.Errorf("tcp: frame of %d bytes outside (0, %d]", sz, maxFrame)
	}
	if cap(buf) < int(sz) {
		buf = make([]byte, sz)
	}
	buf = buf[:sz]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// inboundConn is the connection currently speaking for one peer; done
// closes when its reader has exited.
type inboundConn struct {
	conn net.Conn
	done chan struct{}
}

// adopt makes conn the connection speaking for sender, first retiring
// the peer's previous one: it is closed and its reader awaited, so
// nothing it still buffered reaches the engine after the new
// connection's first frame. That is what makes a fresh connection an
// empty channel — a probe over it cannot overtake data of the old one.
// It returns false when the node is stopping.
func (ms *mesh) adopt(sender core.ProcID, conn net.Conn, done chan struct{}) bool {
	ms.connMu.Lock()
	prev := ms.inbound[sender]
	ms.inbound[sender] = &inboundConn{conn: conn, done: done}
	closed := ms.closed
	ms.connMu.Unlock()
	if closed {
		return false
	}
	if prev != nil {
		prev.conn.Close()
		<-prev.done
	}
	return true
}

// countingReader counts socket reads underneath the buffered reader, so
// RecvSyscalls reflects actual kernel round-trips, not frames.
type countingReader struct {
	conn net.Conn
	cnt  *engine.IOCounters
}

func (r countingReader) Read(p []byte) (int, error) {
	sz, err := r.conn.Read(p)
	if sz > 0 {
		r.cnt.RecvSyscalls.Add(1)
	}
	return sz, err
}

// readLoop moves one connection's frames to the engine. It exits on any
// read error — EOF when the peer closes or restarts, a local close from
// Stop — and the dialing side redials. Reads go through a buffered
// reader sized to pull many frames per socket read.
func (ms *mesh) readLoop(conn net.Conn) {
	defer ms.wg.Done()
	done := make(chan struct{})
	defer close(done)
	defer ms.unregister(conn)
	defer conn.Close()
	src := bufio.NewReaderSize(countingReader{conn: conn, cnt: ms.cfg.IO}, 64<<10)
	buf := make([]byte, 0, 4096)
	sender, err := ms.readHello(conn, src, buf[:cap(buf)])
	if err != nil || !ms.adopt(sender, conn, done) {
		return
	}
	var (
		links []wire.LinkHeader
		msgs  []core.Message
	)
	for {
		var frame []byte
		frame, buf, err = readFrame(src, buf[:cap(buf)])
		if err != nil {
			return
		}
		var gid uint64
		gid, links, msgs, err = wire.DecodeLinkFrame(links[:0], msgs[:0], frame)
		if err != nil {
			// A stream that stops framing valid link frames is broken —
			// unlike UDP, where a malformed datagram can be skipped, the
			// connection is the unit of trust here.
			return
		}
		ms.cfg.IO.RecvFrames.Add(1)
		ms.cfg.Arrive(sender, gid, links, msgs)
	}
}

// Stop closes the listener and every connection and waits for the
// writers and readers to exit.
func (ms *mesh) Stop() {
	close(ms.stop)
	ms.ln.Close()
	ms.connMu.Lock()
	ms.closed = true
	for c := range ms.accepted {
		c.Close()
	}
	ms.connMu.Unlock()
	ms.wg.Wait()
}
