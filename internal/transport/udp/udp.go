// Package udp is the datagram link of the socket engine
// (internal/transport/engine): protocol stacks over real UDP sockets —
// the paper's concluding challenge ("actually implementing them is a
// future challenge") made concrete on the loopback interface or a LAN.
// The engine owns the channel semantics (the capacity window, the
// mailboxes, the fault plane, groups) and packs and stamps every frame;
// this package only moves frames.
//
// UDP already provides the model's unreliability: datagrams are dropped
// under congestion and (on one pair, one path) are not reordered in
// practice on loopback/LAN.
//
// # Link frames (wire v4)
//
// Each engine frame is one datagram. Write renders a section's frames
// with wire.AppendLinkFrame into one scratch buffer and hands them —
// across destinations — to the kernel in one sendmmsg call where the
// platform supports it (Linux amd64/arm64; elsewhere a portable write
// loop), and the receive loop pulls multiple datagrams per recvmmsg. One
// syscall therefore moves many protocol messages in both directions;
// core.TransportStats separates message counts from datagram and syscall
// counts so the amortization is observable. Frames of any earlier wire
// version are dropped: a peer that cannot acknowledge cannot be held to
// the bound. Malformed datagrams fail wire.DecodeLinkFrame and are
// dropped whole — in the model, that is just the loss of the messages
// they carried, which the protocols tolerate by design.
package udp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// maxRecordBytes conservatively bounds one record in a frame: a maximal
// v2 message, its length prefix and its header.
const maxRecordBytes = 2*wire.MaxBlobLen + 2048

// slotBytes is one receive slot: room for any UDP payload, so a legal
// frame (at most wire.MaxDatagram bytes) always arrives whole.
const slotBytes = 64 << 10

// minReadBuffer is the floor of the socket receive buffer request.
const minReadBuffer = 64 << 10

// Transport is this link, for the engine's constructors (engine.Host,
// NewCluster, NewMux). The salt namespaces the substrate's injector seeds
// (sim, runtime and tcp use their own).
var Transport = engine.Transport{FaultSalt: 0x53, Bind: bind}

// socket is one node's UDP socket: the engine.Link of this package. Its
// send scratch needs no lock: the engine calls Write under the node's
// action mutex only.
type socket struct {
	cfg     engine.LinkConfig
	conn    *net.UDPConn
	peers   []*net.UDPAddr
	senders map[netip.AddrPort]core.ProcID // canonical ip:port -> peer, built at Start

	sendBuf []byte     // Write scratch: the rendered frames
	frames  []frameRef // Write scratch: where each lies

	// recvLoop-owned decode scratch.
	decMsgs  []core.Message
	decLinks []wire.LinkHeader

	mm mmsgState // platform batch-IO state (see mmsg_*.go)

	stop chan struct{}
	wg   sync.WaitGroup
}

// bind opens the node's socket and sizes its receive buffer.
func bind(cfg engine.LinkConfig) (engine.Link, error) {
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve local %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen %q: %w", cfg.Listen, err)
	}
	// Ask the kernel for room for everything the windows can legally have
	// in flight toward this node. A smaller buffer (the kernel clamps the
	// request to its ceiling without an error) only costs legal losses:
	// the bound is enforced by the senders' windows, not by this size.
	if err := conn.SetReadBuffer(readBufferBytes(cfg.Peers-1, cfg.Instances, cfg.Capacity)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp: the kernel refused a receive buffer for %d peers at capacity %d: %w",
			cfg.Peers-1, cfg.Capacity, err)
	}
	return &socket{
		cfg:   cfg,
		conn:  conn,
		peers: make([]*net.UDPAddr, cfg.Peers),
		stop:  make(chan struct{}),
	}, nil
}

// readBufferBytes sizes the socket receive buffer: one maximal record
// per window slot of every inbound link (peers × instances, at least one
// instance on a mux node whose groups attach later), floored at
// minReadBuffer and capped at 1 GiB, to keep the request representable
// (the kernel clamps far lower).
func readBufferBytes(peers, instances, capacity int) int {
	want := int64(peers) * int64(max(instances, 1)) * int64(capacity) * maxRecordBytes
	return int(min(max(want, minReadBuffer), 1<<30))
}

func (s *socket) Addr() string { return s.conn.LocalAddr().String() }

func (s *socket) Wire(peer core.ProcID, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udp: resolve peer %d %q: %w", peer, addr, err)
	}
	s.peers[peer] = a
	return nil
}

// frameRef locates one rendered frame in the send buffer.
type frameRef struct {
	off, len int
	f        *engine.Frame
}

// writeFailed is the loss note of a frame the kernel refused.
const writeFailed = "batched write failed"

// Write renders every frame into the send buffer and hands the lot to
// the kernel — one sendmmsg covering all destinations where the
// platform allows.
func (s *socket) Write(frames []engine.Frame) {
	s.sendBuf, s.frames = s.sendBuf[:0], s.frames[:0]
	for i := range frames {
		f := &frames[i]
		off := len(s.sendBuf)
		var err error
		if s.sendBuf, err = wire.AppendLinkFrame(s.sendBuf, f.Group, f.Links, f.Msgs); err != nil {
			f.Lost(err.Error())
			continue
		}
		s.frames = append(s.frames, frameRef{off: off, len: len(s.sendBuf) - off, f: f})
	}
	s.sendFrames(s.sendBuf, s.frames)
}

// sendFramesLoop is the portable writer: one sendto per frame. The
// Linux batch path falls back to it when raw access is unavailable.
func (s *socket) sendFramesLoop(buf []byte, frames []frameRef) {
	for _, fr := range frames {
		s.cfg.IO.SendSyscalls.Add(1)
		if _, err := s.conn.WriteToUDP(buf[fr.off:fr.off+fr.len], s.peers[fr.f.To]); err != nil {
			fr.f.Lost(writeFailed)
			continue
		}
		fr.f.Sent()
	}
}

// readPortable is the portable reader: one datagram per recvfrom.
func (s *socket) readPortable(buf []byte, h func([]byte, netip.AddrPort)) {
	sz, from, err := s.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return // timeout or transient error: try again
	}
	s.cfg.IO.RecvSyscalls.Add(1)
	s.cfg.IO.RecvFrames.Add(1)
	h(buf[:sz], from)
}

// canonical normalizes an address for sender lookup: 4-in-6 mapped
// addresses (as dual-stack sockets report v4 sources) compare equal to
// their plain IPv4 form.
func canonical(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Start builds the sender lookup table from the wired peers and launches
// the receive loop.
func (s *socket) Start() {
	s.senders = make(map[netip.AddrPort]core.ProcID, len(s.peers))
	for i, p := range s.peers {
		if p != nil {
			s.senders[canonical(p.AddrPort())] = core.ProcID(i)
		}
	}
	s.initTransportIO()
	s.wg.Add(1)
	go s.recvLoop()
}

// recvLoop moves datagrams from the socket to the engine. Arrive takes
// only the mailbox lock, so a stalled activation loop (slow actions,
// blocking sends) cannot back it up into kernel-buffer drops. A read
// blocks until a datagram comes or Stop expires the read deadline; an
// idle socket costs nothing.
func (s *socket) recvLoop() {
	defer s.wg.Done()
	r := s.newReader()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		r.read(s.handleDatagram)
	}
}

// handleDatagram decodes one link frame and hands it to the engine.
func (s *socket) handleDatagram(data []byte, from netip.AddrPort) {
	gid, links, msgs, err := wire.DecodeLinkFrame(s.decLinks[:0], s.decMsgs[:0], data)
	if err != nil {
		return // malformed or pre-v4 datagram: dropped whole (message loss)
	}
	// Keep the grown capacity for the next datagram.
	s.decLinks, s.decMsgs = links[:0], msgs[:0]
	sender, ok := s.senders[canonical(from)]
	if !ok {
		return // not a known peer: dropped
	}
	s.cfg.Arrive(sender, gid, links, msgs)
}

// Stop ends the receive loop and closes the socket.
func (s *socket) Stop() {
	close(s.stop)
	// An expired deadline fails the read under way and every later one.
	_ = s.conn.SetReadDeadline(time.Now())
	s.wg.Wait()
	s.conn.Close()
}
