// Package udp is the datagram link of the socket engine
// (internal/transport/engine): protocol stacks over real UDP sockets —
// the paper's concluding challenge ("actually implementing them is a
// future challenge") made concrete on the loopback interface or a LAN.
// The engine owns the channel semantics (the capacity window, the
// mailboxes, the fault plane, groups); this package only moves frames.
//
// UDP already provides the model's unreliability: datagrams are dropped
// under congestion and (on one pair, one path) are not reordered in
// practice on loopback/LAN.
//
// # Link frames (wire v4)
//
// Outbound messages are coalesced per (destination, group) into wire v4
// link frames — a batch of records plus one sequence/acknowledgment
// header per instance — and flushed at the end of every atomic section
// (a Step round, a mailbox drain, a Do body) and when a batch reaches
// WithBatch messages or the datagram budget. Flushing hands all pending
// frames — across destinations — to the kernel in one sendmmsg call
// where the platform supports it (Linux amd64/arm64; elsewhere a
// portable write loop), and the receive loop pulls multiple datagrams
// per recvmmsg. One syscall therefore moves many protocol messages in
// both directions;
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

// DefaultBatch is the default ceiling on messages coalesced into one
// datagram (see WithBatch). Batches also flush at the end of every
// atomic section, so raising the ceiling never delays a message past
// the section that sent it.
const DefaultBatch = 16

// maxRecordBytes conservatively bounds one batched record (a maximal v2
// frame plus its length prefix); flushCut is the batch size past which
// the next record could overflow the datagram, so the batch is flushed
// first. linkHeaderBytes bounds one link header beyond its instance
// name (length byte, flags, two maximal uvarints).
const (
	maxRecordBytes  = 2*wire.MaxBlobLen + 2048
	flushCut        = wire.MaxDatagram - maxRecordBytes
	linkHeaderBytes = 2 + 2*10
)

// minReadBuffer is the floor of the socket receive buffer request.
const minReadBuffer = 64 << 10

// transport describes this link to the engine. The salt namespaces the
// substrate's injector seeds (sim, runtime and tcp use their own).
var transport = engine.Transport{FaultSalt: 0x53, Bind: bind}

// NewNode binds process self to the UDP address laddr; see
// engine.NewNode.
func NewNode(self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...engine.Option) (*engine.Node, error) {
	return engine.NewNode(transport, self, stack, laddr, peers, opts...)
}

// NewCluster runs one cluster on loopback UDP sockets, one per stack;
// see engine.NewCluster.
func NewCluster(stacks []core.Stack, opts ...engine.Option) (*engine.Cluster, error) {
	return engine.NewCluster(transport, stacks, opts...)
}

// NewMux binds one loopback UDP socket per process for many clusters to
// share; see engine.NewMux.
func NewMux(nProcs int, opts ...engine.Option) (*engine.Mux, error) {
	return engine.NewMux(transport, nProcs, opts...)
}

// socket is one node's UDP socket: the engine.Link of this package. Its
// outbound state needs no lock: the engine calls Queue, Control and
// Flush under the node's action mutex only.
type socket struct {
	cfg       engine.LinkConfig
	conn      *net.UDPConn
	peers     []*net.UDPAddr
	senders   map[netip.AddrPort]core.ProcID // canonical ip:port -> peer, built at Start
	batchMsgs int

	sendBuf []byte // flush scratch: rendered frames
	frames  []frameRef
	hdrs    []wire.LinkHeader // flush scratch: one frame's link headers
	pending map[sendKey]*outBatch
	queue   []*outBatch // pending in insertion order
	free    []*outBatch

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
	s := &socket{
		cfg:       cfg,
		conn:      conn,
		peers:     make([]*net.UDPAddr, cfg.Peers),
		batchMsgs: cfg.Batch,
		pending:   make(map[sendKey]*outBatch),
		stop:      make(chan struct{}),
	}
	if s.batchMsgs == 0 {
		s.batchMsgs = DefaultBatch
	}
	return s, nil
}

// readBufferBytes sizes the socket receive buffer: one maximal record
// per window slot of every inbound link (peers × instances, at least one
// instance on a mux node whose groups attach later), floored at
// minReadBuffer.
func readBufferBytes(peers, instances, capacity int) int {
	if instances < 1 {
		instances = 1
	}
	want := int64(peers) * int64(instances) * int64(capacity) * maxRecordBytes
	if want < minReadBuffer {
		want = minReadBuffer
	}
	if want > 1<<30 {
		want = 1 << 30 // keep the request representable; the kernel clamps far lower
	}
	return int(want)
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

// sendKey addresses one pending outbound batch.
type sendKey struct {
	to  core.ProcID
	gid uint64
}

// batchLink is one link an outbound frame speaks for: it has records in
// the frame, or a control header (echo or probe) to deliver.
type batchLink struct {
	c     *engine.Chan
	probe bool
}

// outBatch is one coalesced datagram under construction.
type outBatch struct {
	to       core.ProcID
	g        *engine.Group
	b        wire.BatchBuilder
	links    []batchLink
	hdrBytes int // upper bound on the rendered link headers
	live     bool
}

// find returns the index of c among the batch's links, or -1.
func (ob *outBatch) find(c *engine.Chan) int {
	for i, bl := range ob.links {
		if bl.c == c {
			return i
		}
	}
	return -1
}

// size bounds the frame the batch would render now.
func (ob *outBatch) size() int { return ob.b.Size() + ob.hdrBytes }

// frameRef locates one rendered datagram in the flush buffer, with the
// accounting context needed after the write. A frame with count 0 is a
// control frame: a probe if any of its headers probes, an echo otherwise.
type frameRef struct {
	off, len int
	to       core.ProcID
	g        *engine.Group
	count    int
	probe    bool
}

// Queue adds m to the pending batch toward c.Peer, flushing the batch
// when it reaches the WithBatch ceiling. Unencodable payloads are
// refused.
func (s *socket) Queue(g *engine.Group, c *engine.Chan, m core.Message) error {
	ob := s.roomFor(g, c)
	if err := ob.b.Add(m); err != nil {
		return err
	}
	ob.addLink(c, false)
	if ob.b.Count() >= s.batchMsgs {
		s.flushBatch(ob)
	}
	return nil
}

// Control makes the pending batch toward c.Peer carry c's header.
func (s *socket) Control(g *engine.Group, c *engine.Chan, probe bool) {
	s.roomFor(g, c).addLink(c, probe)
}

// roomFor returns the pending batch for (c.Peer, g) with room for one
// more record and a header for c, shipping what is pending first if the
// next record or header could overflow the frame.
func (s *socket) roomFor(g *engine.Group, c *engine.Chan) *outBatch {
	ob := s.outFor(c.Peer, g)
	if len(ob.links) > 0 && (ob.size() > flushCut || (len(ob.links) == wire.MaxLinks && ob.find(c) < 0)) {
		s.flushBatch(ob)
		ob = s.outFor(c.Peer, g)
	}
	return ob
}

// outFor returns the pending batch for (to, g), creating one from the
// free list if needed.
func (s *socket) outFor(to core.ProcID, g *engine.Group) *outBatch {
	k := sendKey{to: to, gid: g.ID()}
	if ob := s.pending[k]; ob != nil {
		return ob
	}
	var ob *outBatch
	if len(s.free) > 0 {
		ob = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		ob = new(outBatch)
	}
	ob.to, ob.g, ob.live = to, g, true
	ob.links, ob.hdrBytes = ob.links[:0], 0
	ob.b.Reset(g.ID())
	s.pending[k] = ob
	s.queue = append(s.queue, ob)
	return ob
}

// addLink makes the batch's frame speak for c: its records are in the
// frame, or (probe or not) a control header is due.
func (ob *outBatch) addLink(c *engine.Chan, probe bool) {
	if i := ob.find(c); i >= 0 {
		ob.links[i].probe = ob.links[i].probe || probe
		return
	}
	ob.links = append(ob.links, batchLink{c: c, probe: probe})
	ob.hdrBytes += len(c.Instance) + linkHeaderBytes
}

// render stamps ob's link headers — sequence and acknowledgment are read
// now, so a frame always carries the freshest consumption — and appends
// the frame to the flush buffer.
func (s *socket) render(ob *outBatch) {
	s.hdrs = s.hdrs[:0]
	probe := false
	for _, bl := range ob.links {
		s.hdrs = append(s.hdrs, bl.c.Stamp(bl.probe))
		probe = probe || bl.probe
	}
	off := len(s.sendBuf)
	s.sendBuf = ob.b.AppendLinkFrame(s.sendBuf, s.hdrs)
	s.frames = append(s.frames, frameRef{
		off: off, len: len(s.sendBuf) - off, to: ob.to, g: ob.g, count: ob.b.Count(), probe: probe,
	})
}

// flushBatch renders and writes one pending batch immediately (count or
// size threshold reached). It stays in the queue as a dead entry that
// Flush recycles.
func (s *socket) flushBatch(ob *outBatch) {
	s.sendBuf, s.frames = s.sendBuf[:0], s.frames[:0]
	s.render(ob)
	delete(s.pending, sendKey{to: ob.to, gid: ob.g.ID()})
	ob.live = false
	s.sendFrames(s.sendBuf, s.frames)
}

// Flush renders every pending batch into the flush buffer and hands the
// lot to the kernel — one sendmmsg covering all destinations where the
// platform allows.
func (s *socket) Flush() {
	if len(s.queue) == 0 {
		return
	}
	s.sendBuf, s.frames = s.sendBuf[:0], s.frames[:0]
	for _, ob := range s.queue {
		if ob.live {
			if len(ob.links) > 0 {
				s.render(ob)
			}
			delete(s.pending, sendKey{to: ob.to, gid: ob.g.ID()})
			ob.live = false
		}
		s.free = append(s.free, ob)
	}
	s.queue = s.queue[:0]
	if len(s.frames) > 0 {
		s.sendFrames(s.sendBuf, s.frames)
	}
}

// frameFailed accounts one datagram the kernel refused: every message it
// carried is a sender-side loss.
func (s *socket) frameFailed(fr frameRef) {
	fr.g.SendLost(fr.to, fr.count, "batched write failed")
}

// frameSent accounts one datagram the kernel accepted.
func (s *socket) frameSent(fr frameRef) {
	s.cfg.IO.SendFrames.Add(1)
	if fr.count > 0 {
		fr.g.Sent(fr.to, fr.count)
	} else {
		fr.g.ControlSent(fr.probe)
	}
}

// sendFramesLoop is the portable writer: one sendto per frame. The
// Linux batch path falls back to it when raw access is unavailable.
func (s *socket) sendFramesLoop(buf []byte, frames []frameRef) {
	for _, fr := range frames {
		s.cfg.IO.SendSyscalls.Add(1)
		if _, err := s.conn.WriteToUDP(buf[fr.off:fr.off+fr.len], s.peers[fr.to]); err != nil {
			s.frameFailed(fr)
			continue
		}
		s.frameSent(fr)
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
// blocking sends) cannot back it up into kernel-buffer drops.
func (s *socket) recvLoop() {
	defer s.wg.Done()
	r := s.newReader()
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		select {
		case <-s.stop:
			// Checked after arming: Stop expires the deadline, and must
			// not lose that to a re-arm.
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
	// Expire the receive loop's read deadline instead of waiting it out.
	_ = s.conn.SetReadDeadline(time.Now())
	s.wg.Wait()
	s.conn.Close()
}
