// Package udp runs protocol stacks over real UDP sockets — the paper's
// concluding challenge ("actually implementing them is a future
// challenge") made concrete on the loopback interface or a LAN.
//
// # Channel semantics on UDP
//
// UDP already provides the model's unreliability: datagrams are dropped
// under congestion and (on one pair, one path) are not reordered in
// practice on loopback/LAN. What UDP does not provide is the KNOWN
// capacity bound that Theorem 1 makes mandatory, so the transport
// enforces one (DESIGN.md §7):
//
//   - every directed (peer, group, instance) link has a sender-side
//     window of c messages (WithCapacity, default DefaultCapacity). A
//     slot is held from env.Send until the receiver hands the message
//     to Deliver or drops it; a send into a full window is lost at the
//     sender (core.EvSendLost, Note "window"), the in-memory runtime's
//     rule carried across the socket. The receiver reports consumption
//     in the link headers of whatever it sends next, or in an echo-only
//     frame from the step timer; a sender refused at a shut window
//     probes from the same timer, so a lost echo or a restarted peer
//     cannot wedge the link (internal/window is the state machine);
//   - each (group, sender, instance) triple gets a mailbox of c slots at
//     the receiver. A window-admitted message always finds room; the
//     bound only bites on traffic that ignores the window (a hostile or
//     buggy peer, fault-plane duplicates), which is dropped lose-on-full
//     and reported as core.EvLose;
//   - the protocol stacks must be built with the same c (the flag domain
//     is 2c+2 values, so every unit of c costs two handshake rounds per
//     peer per request: the bound is worth keeping small).
//
// # Link frames (wire v4)
//
// Outbound messages are coalesced per (destination, group) into wire v4
// link frames — a batch of records plus one sequence/acknowledgment
// header per instance — and flushed at the end of every atomic section
// (a Step round, a mailbox drain, a Do body), when a batch reaches
// WithBatch messages or the datagram budget, and on the sweep tick as a
// deadline. Flushing hands all pending frames — across destinations —
// to the kernel in one sendmmsg call where the platform supports it
// (Linux amd64/arm64; elsewhere a portable write loop), and the receive
// loop pulls multiple datagrams per recvmmsg. One syscall therefore
// moves many protocol messages in both directions; Stats separates
// message counts from datagram and syscall counts so the amortization
// is observable. Frames of any earlier wire version are dropped: a peer
// that cannot acknowledge cannot be held to the bound.
//
// # Groups: many clusters, one socket
//
// A Node hosts one or more groups, each an independent protocol stack
// with its own routes, observers, topology, and fault plan, all sharing
// the node's socket and loops. The frame's group id routes every
// received message to its group's mailboxes. The legacy constructor
// installs its stack as group 0; Mux attaches further clusters with
// fresh group ids (see mux.go).
//
// # Concurrency structure
//
// Two goroutines per node, coupled only through the double-buffered
// mailboxes (DESIGN.md §7): the receive loop appends decoded messages
// under the mailbox lock and signals a wakeup channel; the activation
// loop swaps the whole mailbox map out under that lock, then delivers
// the batch — and performs any resulting sends — under the action mutex
// only. A blocking send therefore never stalls the receive loop, and
// mailbox handoff costs one pointer swap per batch regardless of how
// many messages arrived.
//
// The fault plane acts per logical message, never per datagram: every
// message decoded out of a batch passes its group's injector
// individually before it is boxed, so §9 semantics and seed
// reproducibility are independent of how messages were packed on the
// wire. Malformed datagrams fail wire.DecodeLinkFrame and are dropped
// whole — in the model, that is just the loss of the messages they
// carried, which the protocols tolerate by design.
package udp

import (
	"fmt"
	"math/rand/v2"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/window"
	"github.com/snapstab/snapstab/internal/wire"
)

// DefaultCapacity is the per-link capacity bound c the transport
// enforces by default: the window of every directed (peer, group,
// instance) link, the mailbox size, and the bound protocol stacks must
// be built with (flag top 2c+2 = 10).
const DefaultCapacity = 4

// DefaultBatch is the default ceiling on messages coalesced into one
// datagram (see WithBatch).
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

// Option configures a Node.
type Option func(*Node)

// WithCapacity sets the channel-capacity bound c the node enforces on
// every directed (peer, group, instance) link (default DefaultCapacity):
// the sender-side window and the receive mailbox are both c messages.
// The protocol stacks must be built with the same bound. The transport
// accepts any c >= 1; stacks that carry handshake flags are limited to
// window.MaxCapacity by the wire format's one-byte flag fields.
func WithCapacity(c int) Option {
	return func(n *Node) { n.capacity, n.capacitySet = c, true }
}

// WithTick sets the fallback mailbox sweep interval (default 1ms).
// Mailbox drains are notification-driven — the receive loop wakes the
// activation loop as soon as a datagram is boxed — so the periodic sweep
// is only a safety net; it also bounds how long a coalesced send can sit
// unflushed (the batching deadline).
func WithTick(d time.Duration) Option {
	return func(n *Node) { n.tick = d }
}

// WithStepInterval sets the pacing of internal protocol actions (default
// 2ms). Action A2 retransmits on every activation, so this is the
// retransmission interval; unpaced retransmission floods the path and the
// queueing delay stalls the handshake (deliveries, by contrast, are
// event-driven and unpaced).
func WithStepInterval(d time.Duration) Option {
	return func(n *Node) { n.stepInterval = d }
}

// WithBatch sets the maximum number of messages coalesced into one
// datagram (default DefaultBatch; ceiling wire.MaxBatch). Batches also
// flush at the end of every atomic section and on the sweep tick, so
// raising the ceiling never delays a message past the tick. WithBatch(1)
// disables coalescing: every message is written immediately in its own
// link frame.
func WithBatch(k int) Option {
	return func(n *Node) { n.batchMsgs, n.batchSet = k, true }
}

// WithObserver subscribes an event observer. Callbacks arrive
// concurrently from the receive loop (mailbox-full EvLose) and the
// activation loop (everything else), so the observer must be
// goroutine-safe.
func WithObserver(o core.Observer) Option {
	return func(n *Node) { n.obs0 = append(n.obs0, o) }
}

// WithTopology declares the communication graph the node's default group
// belongs to: sends to non-neighbours are dropped (and counted) at the
// sender even if an address is wired, messages from non-neighbours are
// rejected at the receiver, and the installed fault plan is validated
// against the edge set. NewCluster additionally uses it to wire only
// neighbour addresses. The default (nil) is the complete graph.
func WithTopology(t *core.Topology) Option {
	return func(n *Node) { n.topo0 = t }
}

// udpFaultSalt namespaces this substrate's injector seeds within the
// plan's rng.Mix hierarchy (sim and runtime use their own salts).
const udpFaultSalt = 0x53

// WithFaults installs a fault-injection plan (see core.FaultPlan) on the
// node's default group, interposed at the mailbox boundary: every
// decoded message from a known peer — individually, regardless of how
// messages were batched into datagrams — passes the group's injector
// before it is boxed, which may drop, duplicate, corrupt, reorder, or
// delay it, honor partition windows, and silence the group inside crash
// windows (no internal actions, no mailbox drains, arrivals consumed).
// The injector is owned by the receive loop and seeded
// rng.Mix(plan.Seed, salt, self); schedule windows are measured in
// plan.Unit ticks of wall time from Start. UDP's natural losses compose
// underneath the plan, exactly as on a real adversarial network.
func WithFaults(plan *core.FaultPlan) Option {
	return func(n *Node) { n.fault0 = plan }
}

// group is one protocol stack hosted on a node: an independent cluster
// member with its own routing, observers, topology, fault plane, and
// message counters, multiplexed with its siblings over the node's
// socket by the frame's group id.
type group struct {
	id        uint64
	stack     core.Stack
	routes    map[string]core.Machine
	topo      *core.Topology
	observers core.MultiObserver
	fault     *core.FaultPlan
	inj       *core.Injector // owned by recvLoop; counters readable anywhere
	faultUnit time.Duration
	epoch     time.Time // fault-schedule tick zero; set before the group is visible to the loops

	// links holds the window state of every (peer, instance) link of the
	// group behind its own leaf lock.
	links *window.Table

	sends        atomic.Int64
	recvs        atomic.Int64
	sendDrops    atomic.Int64
	mailboxDrops atomic.Int64
	echoFrames   atomic.Int64
	probeFrames  atomic.Int64
}

func (g *group) emit(ev core.Event) {
	if len(g.observers) > 0 {
		g.observers.OnEvent(ev)
	}
}

// now returns the group's fault-schedule tick: wall time since its epoch
// in plan.Unit ticks. Only meaningful when a fault plan is installed.
func (g *group) now() int64 {
	return int64(time.Since(g.epoch) / g.faultUnit)
}

// down reports whether the group is inside a crash window for self.
func (g *group) down(self core.ProcID) bool {
	return g.fault != nil && g.fault.Down(self, g.now())
}

// buildGroup assembles and validates one hosted group.
func buildGroup(id uint64, stack core.Stack, topo *core.Topology, plan *core.FaultPlan,
	obs core.MultiObserver, nProcs int, self core.ProcID, capacity int) (*group, error) {
	if topo != nil && topo.N() != nProcs {
		return nil, fmt.Errorf("udp: topology over %d processes, %d peers", topo.N(), nProcs)
	}
	g := &group{
		id:        id,
		stack:     stack,
		routes:    stack.ByInstance(),
		topo:      topo,
		observers: obs,
		fault:     plan,
		// A random first sequence keeps a restarted node's numbering
		// clear of acknowledgments addressed to its previous life.
		links: window.NewTable(capacity, 1+uint64(rand.Uint32()>>1)),
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("udp: %w", err)
		}
		if err := plan.ValidateTopology(topo); err != nil {
			return nil, fmt.Errorf("udp: %w", err)
		}
		g.faultUnit = plan.TickUnit()
		seed := rng.Mix(plan.Seed, udpFaultSalt, uint64(self))
		if id != 0 {
			// Extra groups get distinct injector streams; group 0 keeps the
			// exact legacy seeding so recorded runs stay reproducible.
			seed = rng.Mix(plan.Seed, udpFaultSalt, uint64(self), id)
		}
		g.inj = core.NewInjector(plan, rng.New(seed))
	}
	return g, nil
}

// groupSet is the copy-on-write view of a node's hosted groups, swapped
// atomically so the loops read it without locks.
type groupSet struct {
	byID map[uint64]*group
	list []*group
}

// Node is one process bound to a UDP socket, hosting one or more groups.
type Node struct {
	self         core.ProcID
	conn         *net.UDPConn
	peers        []*net.UDPAddr
	senders      map[netip.AddrPort]core.ProcID // canonical ip:port -> peer, built at Start
	capacity     int
	capacitySet  bool
	tick         time.Duration
	stepInterval time.Duration
	batchMsgs    int
	batchSet     bool

	// Group-0 staging, written by options and consumed by NewNode; a
	// mux-hosted node (nil stack) must not carry any of these.
	topo0  *core.Topology
	fault0 *core.FaultPlan
	obs0   core.MultiObserver

	g0 *group // the default group (nil on mux-hosted nodes)

	gmu    sync.Mutex // serializes attach/detach
	groups atomic.Pointer[groupSet]

	// mu is the action mutex: it makes stack actions (Step, Deliver, Do)
	// atomic. Socket writes happen under it — never under mbMu — so a
	// blocking send cannot stall the receive loop. The pending outbound
	// batches live under it too; every atomic section flushes them on
	// exit.
	mu      sync.Mutex
	sendBuf []byte // flush scratch: rendered frames, guarded by mu
	frames  []frameRef
	hdrs    []wire.LinkHeader // flush scratch: one frame's link headers
	due     []window.Due      // step-timer scratch: control frames due
	pending map[sendKey]*outBatch
	queue   []*outBatch // pending in insertion order
	free    []*outBatch

	// mbMu guards the double-buffered mailboxes and is never held across
	// socket operations or protocol actions.
	mbMu      sync.Mutex
	mailboxes map[mailKey][]core.Message // filled by recvLoop
	spare     map[mailKey][]core.Message // drained buffer, swapped in by actLoop
	boxed     int                        // messages currently in mailboxes
	mail      chan struct{}              // capacity 1: drain wakeup

	sendDatagrams atomic.Int64
	sendSyscalls  atomic.Int64
	recvDatagrams atomic.Int64
	recvSyscalls  atomic.Int64

	// recvLoop-owned decode scratch.
	decMsgs  []core.Message
	decLinks []wire.LinkHeader

	mm mmsgState // platform batch-IO state (see mmsg_*.go)

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// Stats counts transport-level events, mirroring sim.Stats where the model
// concepts coincide. All counters are safe to read concurrently with the
// node's loops. The message counters (Sends, Recvs, SendDrops,
// MailboxDrops, Faults) belong to the node's default group; the datagram
// and syscall counters are per-socket and therefore shared by every
// group the node hosts.
type Stats struct {
	// Sends counts messages successfully handed to the socket (inside a
	// datagram whose write succeeded).
	Sends int64
	// Recvs counts messages accepted into a mailbox (received from a
	// known peer, surviving the fault plane, not dropped on full).
	Recvs int64
	// SendDrops counts messages lost at the sender — sends refused by a
	// full link window, failed writes and unencodable payloads. The
	// simulator's analogue is sim.Stats.SendLosses; without this counter
	// a misconfigured or saturated transport is indistinguishable from
	// fair loss.
	SendDrops int64
	// MailboxDrops counts messages dropped at a full receive mailbox,
	// the transport's lose-on-full rule (reported as core.EvLose: the
	// message was in transit and was lost at the receiver).
	MailboxDrops int64
	// SendDatagrams and RecvDatagrams count datagrams on the socket;
	// Sends/SendDatagrams is the outbound batch occupancy.
	SendDatagrams int64
	RecvDatagrams int64
	// SendSyscalls and RecvSyscalls count the socket system calls that
	// moved those datagrams; sendmmsg/recvmmsg make them smaller than
	// the datagram counts, and Sends/SendSyscalls is the syscall
	// amortization the batching path exists to maximize.
	SendSyscalls int64
	RecvSyscalls int64
	// EchoFrames and ProbeFrames count this group's control datagrams
	// (no messages, link headers only): acknowledgments that found no
	// data to ride on, and probes sent at a shut window. Both are also
	// counted in SendDatagrams.
	EchoFrames  int64
	ProbeFrames int64
	// Links holds the per-peer window gauges (see core.LinkStats; the
	// per-link message counters stay zero on UDP).
	Links []core.LinkStats
	// Faults counts the faults injected at this group's mailbox boundary
	// by the installed FaultPlan (WithFaults); zero without one. Injected
	// drops are not folded into MailboxDrops, so injected adversity stays
	// distinguishable from genuine backpressure.
	Faults core.FaultStats
}

// Stats returns a snapshot of the transport counters for the default
// group (plus the socket-wide datagram/syscall counters).
func (n *Node) Stats() Stats {
	if n.g0 != nil {
		return n.groupStats(n.g0)
	}
	return n.groupStats(&group{})
}

func (n *Node) groupStats(g *group) Stats {
	s := Stats{
		Sends:         g.sends.Load(),
		Recvs:         g.recvs.Load(),
		SendDrops:     g.sendDrops.Load(),
		MailboxDrops:  g.mailboxDrops.Load(),
		SendDatagrams: n.sendDatagrams.Load(),
		RecvDatagrams: n.recvDatagrams.Load(),
		SendSyscalls:  n.sendSyscalls.Load(),
		RecvSyscalls:  n.recvSyscalls.Load(),
		EchoFrames:    g.echoFrames.Load(),
		ProbeFrames:   g.probeFrames.Load(),
	}
	for p := range n.peers {
		if core.ProcID(p) != n.self {
			s.Links = append(s.Links, core.LinkStats{Peer: core.ProcID(p)})
		}
	}
	if g.links != nil {
		g.links.FillLinkStats(s.Links)
	}
	if g.inj != nil {
		s.Faults = g.inj.Stats()
	}
	return s
}

// transportStats assembles the substrate-agnostic snapshot for one
// hosted group.
func (n *Node) transportStats(g *group) core.TransportStats {
	s := n.groupStats(g)
	return core.TransportStats{
		Addr:          n.Addr(),
		Sends:         s.Sends,
		Recvs:         s.Recvs,
		SendDrops:     s.SendDrops,
		MailboxDrops:  s.MailboxDrops,
		SendDatagrams: s.SendDatagrams,
		RecvDatagrams: s.RecvDatagrams,
		SendSyscalls:  s.SendSyscalls,
		RecvSyscalls:  s.RecvSyscalls,
		EchoFrames:    s.EchoFrames,
		ProbeFrames:   s.ProbeFrames,
		Capacity:      n.capacity,
		Links:         s.Links,
		Faults:        s.Faults,
	}
}

type mailKey struct {
	gid      uint64
	from     core.ProcID
	instance string
}

// sendKey addresses one pending outbound batch.
type sendKey struct {
	to  core.ProcID
	gid uint64
}

// batchLink is one link an outbound frame speaks for: it has records in
// the frame, or a control header (echo or probe) to deliver.
type batchLink struct {
	e     *window.Entry
	probe bool
}

// outBatch is one coalesced datagram under construction.
type outBatch struct {
	to       core.ProcID
	g        *group
	b        wire.BatchBuilder
	links    []batchLink
	hdrBytes int // upper bound on the rendered link headers
	live     bool
}

// find returns the index of e among the batch's links, or -1.
func (ob *outBatch) find(e *window.Entry) int {
	for i, bl := range ob.links {
		if bl.e == e {
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
	g        *group
	count    int
	probe    bool
}

// NewNode binds process self to laddr. peers maps every process ID
// (including self, whose entry is ignored) to its address. stack becomes
// the node's default group (group 0); a nil stack builds a bare
// mux-style node hosting no groups yet.
func NewNode(self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...Option) (*Node, error) {
	if int(self) >= len(peers) {
		return nil, fmt.Errorf("udp: self %d outside peer list of %d", self, len(peers))
	}
	addr, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve local %q: %w", laddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen %q: %w", laddr, err)
	}
	n := &Node{
		self:      self,
		conn:      conn,
		peers:     make([]*net.UDPAddr, len(peers)),
		mailboxes: make(map[mailKey][]core.Message),
		spare:     make(map[mailKey][]core.Message),
		pending:   make(map[sendKey]*outBatch),
		mail:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	n.groups.Store(&groupSet{byID: map[uint64]*group{}})
	for i, p := range peers {
		if core.ProcID(i) == self {
			continue
		}
		a, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udp: resolve peer %d %q: %w", i, p, err)
		}
		n.peers[i] = a
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.batchSet && (n.batchMsgs < 1 || n.batchMsgs > wire.MaxBatch) {
		conn.Close()
		return nil, fmt.Errorf("udp: invalid batch size %d", n.batchMsgs)
	}
	if !n.batchSet {
		n.batchMsgs = DefaultBatch
	}
	if n.capacitySet && n.capacity < 1 {
		conn.Close()
		return nil, fmt.Errorf("udp: invalid capacity %d", n.capacity)
	}
	if !n.capacitySet {
		n.capacity = DefaultCapacity
	}
	// Ask the kernel for room for everything the windows can legally have
	// in flight toward this node. A smaller buffer (the kernel clamps the
	// request to its ceiling without an error) only costs legal losses:
	// the bound is enforced by the senders' windows, not by this size.
	if err := conn.SetReadBuffer(readBufferBytes(len(peers)-1, len(stack), n.capacity)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp: the kernel refused a receive buffer for %d peers at capacity %d: %w",
			len(peers)-1, n.capacity, err)
	}
	if n.tick <= 0 {
		n.tick = time.Millisecond
	}
	if n.stepInterval <= 0 {
		n.stepInterval = 2 * time.Millisecond
	}
	if stack == nil {
		if n.topo0 != nil || n.fault0 != nil || len(n.obs0) > 0 {
			conn.Close()
			return nil, fmt.Errorf("udp: group option on a node with no default group")
		}
		return n, nil
	}
	g, err := buildGroup(0, stack, n.topo0, n.fault0, n.obs0, len(peers), self, n.capacity)
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.g0 = g
	n.addGroup(g)
	return n, nil
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

// addGroup publishes g to the loops (copy-on-write).
func (n *Node) addGroup(g *group) {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	old := n.groups.Load()
	gs := &groupSet{byID: make(map[uint64]*group, len(old.byID)+1)}
	for id, og := range old.byID {
		gs.byID[id] = og
	}
	gs.byID[g.id] = g
	gs.list = make([]*group, 0, len(gs.byID))
	for _, og := range gs.byID {
		gs.list = append(gs.list, og)
	}
	n.groups.Store(gs)
}

// removeGroup detaches group id; its boxed mail is discarded on the next
// drain and inbound datagrams for it are dropped.
func (n *Node) removeGroup(id uint64) {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	old := n.groups.Load()
	if _, ok := old.byID[id]; !ok {
		return
	}
	gs := &groupSet{byID: make(map[uint64]*group, len(old.byID)-1)}
	for gid, og := range old.byID {
		if gid != id {
			gs.byID[gid] = og
		}
	}
	gs.list = make([]*group, 0, len(gs.byID))
	for _, og := range gs.byID {
		gs.list = append(gs.list, og)
	}
	n.groups.Store(gs)
}

// Addr returns the bound local address (useful with port 0).
func (n *Node) Addr() string { return n.conn.LocalAddr().String() }

// SetPeer sets the address of peer id after construction, enabling
// two-phase setup: bind every socket with port 0 first, then wire the
// learned addresses. Must be called before Start.
func (n *Node) SetPeer(id core.ProcID, addr *net.UDPAddr) { n.peers[id] = addr }

// env implements core.Env for one group; use only under n.mu.
type env struct {
	n *Node
	g *group
}

func (v env) Self() core.ProcID { return v.n.self }
func (v env) N() int            { return len(v.n.peers) }

func (v env) Send(to core.ProcID, m core.Message) {
	n, g := v.n, v.g
	if g.topo != nil && !g.topo.HasEdge(n.self, to) {
		// Not a neighbour under the topology: no channel exists, the send
		// vanishes at the sender (and is counted, unlike an unwired peer).
		g.sendDrops.Add(1)
		g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: "no edge"})
		return
	}
	if n.peers[to] == nil {
		return
	}
	e := g.links.Link(to, m.Instance)
	if !e.Admit() {
		// The link already holds c unconsumed messages: the send is lost
		// at the sender, the model's rule for a full channel.
		g.sendDrops.Add(1)
		g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: "window"})
		return
	}
	ob := n.roomFor(to, g, e)
	if err := ob.b.Add(m); err != nil {
		// Unencodable payloads are dropped: message loss, but counted so
		// the loss is observable. The message never entered the link.
		e.Cancel()
		g.sendDrops.Add(1)
		g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m})
		return
	}
	ob.addLink(e, false)
	// The send event fires at enqueue so observers see protocol order;
	// the Sends counter increments at the write, when the datagram
	// actually left.
	g.emit(core.Event{Kind: core.EvSend, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m})
	if ob.b.Count() >= n.batchMsgs {
		n.flushBatch(ob)
	}
}

func (v env) Emit(ev core.Event) {
	ev.Proc = v.n.self
	v.g.emit(ev)
}

// roomFor returns the pending batch for (to, g) with room for one more
// record and a header for e, shipping what is pending first if the next
// record or header could overflow the frame. Callers hold n.mu.
func (n *Node) roomFor(to core.ProcID, g *group, e *window.Entry) *outBatch {
	ob := n.outFor(to, g)
	if len(ob.links) > 0 && (ob.size() > flushCut || (len(ob.links) == wire.MaxLinks && ob.find(e) < 0)) {
		n.flushBatch(ob)
		ob = n.outFor(to, g)
	}
	return ob
}

// outFor returns the pending batch for (to, g), creating one from the
// free list if needed. Callers hold n.mu.
func (n *Node) outFor(to core.ProcID, g *group) *outBatch {
	k := sendKey{to: to, gid: g.id}
	if ob := n.pending[k]; ob != nil {
		return ob
	}
	var ob *outBatch
	if len(n.free) > 0 {
		ob = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
	} else {
		ob = new(outBatch)
	}
	ob.to, ob.g, ob.live = to, g, true
	ob.links, ob.hdrBytes = ob.links[:0], 0
	ob.b.Reset(g.id)
	n.pending[k] = ob
	n.queue = append(n.queue, ob)
	return ob
}

// addLink makes the batch's frame speak for e: its records are in the
// frame, or (probe or not) a control header is due.
func (ob *outBatch) addLink(e *window.Entry, probe bool) {
	if i := ob.find(e); i >= 0 {
		ob.links[i].probe = ob.links[i].probe || probe
		return
	}
	ob.links = append(ob.links, batchLink{e: e, probe: probe})
	ob.hdrBytes += len(e.Instance) + linkHeaderBytes
}

// render stamps ob's link headers — sequence and acknowledgment are read
// now, so a frame always carries the freshest consumption — and appends
// the frame to the flush buffer. Callers hold n.mu.
func (n *Node) render(ob *outBatch) {
	n.hdrs = n.hdrs[:0]
	probe := false
	for _, bl := range ob.links {
		h := bl.e.Stamp(bl.probe)
		n.hdrs = append(n.hdrs, wire.LinkHeader{Instance: bl.e.Instance, Seq: h.Seq, Ack: h.Ack, Probe: h.Probe})
		probe = probe || bl.probe
	}
	off := len(n.sendBuf)
	n.sendBuf = ob.b.AppendLinkFrame(n.sendBuf, n.hdrs)
	n.frames = append(n.frames, frameRef{
		off: off, len: len(n.sendBuf) - off, to: ob.to, g: ob.g, count: ob.b.Count(), probe: probe,
	})
}

// flushBatch renders and writes one pending batch immediately (count or
// size threshold reached). Callers hold n.mu.
func (n *Node) flushBatch(ob *outBatch) {
	n.sendBuf, n.frames = n.sendBuf[:0], n.frames[:0]
	n.render(ob)
	n.retire(ob)
	n.sendFrames(n.sendBuf, n.frames)
}

// flushAll renders every pending batch into the flush buffer and hands
// the lot to the kernel — one sendmmsg covering all destinations where
// the platform allows. Called at the end of every atomic section and on
// the sweep tick. Callers hold n.mu.
func (n *Node) flushAll() {
	if len(n.queue) == 0 {
		return
	}
	n.sendBuf = n.sendBuf[:0]
	n.frames = n.frames[:0]
	for _, ob := range n.queue {
		if ob.live {
			if len(ob.links) > 0 {
				n.render(ob)
			}
			n.retirePending(ob)
			ob.live = false
		}
		n.free = append(n.free, ob)
	}
	n.queue = n.queue[:0]
	if len(n.frames) > 0 {
		n.sendFrames(n.sendBuf, n.frames)
	}
}

// retire removes a threshold-flushed batch from the pending map; it
// stays in the queue as a dead entry that flushAll recycles.
func (n *Node) retire(ob *outBatch) {
	n.retirePending(ob)
	ob.live = false
}

func (n *Node) retirePending(ob *outBatch) {
	delete(n.pending, sendKey{to: ob.to, gid: ob.g.id})
}

// frameFailed accounts one datagram the kernel refused: every message it
// carried is a sender-side loss.
func (n *Node) frameFailed(fr frameRef) {
	fr.g.sendDrops.Add(int64(fr.count))
	for i := 0; i < fr.count; i++ {
		// The coalesced messages are not retained past encoding, so the
		// loss events carry the link, not the message body.
		fr.g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: fr.to, Note: "batched write failed"})
	}
}

// frameSent accounts one datagram the kernel accepted.
func (n *Node) frameSent(fr frameRef) {
	fr.g.sends.Add(int64(fr.count))
	n.sendDatagrams.Add(1)
	switch {
	case fr.count > 0:
	case fr.probe:
		fr.g.probeFrames.Add(1)
	default:
		fr.g.echoFrames.Add(1)
	}
}

// sendFramesLoop is the portable writer: one sendto per frame. The
// Linux batch path falls back to it when raw access is unavailable.
func (n *Node) sendFramesLoop(buf []byte, frames []frameRef) {
	for _, fr := range frames {
		n.sendSyscalls.Add(1)
		if _, err := n.conn.WriteToUDP(buf[fr.off:fr.off+fr.len], n.peers[fr.to]); err != nil {
			n.frameFailed(fr)
			continue
		}
		n.frameSent(fr)
	}
}

// readPortable is the portable reader: one datagram per recvfrom.
func (n *Node) readPortable(buf []byte, h func([]byte, netip.AddrPort)) {
	sz, from, err := n.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return // timeout or transient error: try again
	}
	n.recvSyscalls.Add(1)
	n.recvDatagrams.Add(1)
	h(buf[:sz], from)
}

// canonical normalizes an address for sender lookup: 4-in-6 mapped
// addresses (as dual-stack sockets report v4 sources) compare equal to
// their plain IPv4 form.
func canonical(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Start builds the sender lookup table from the wired peers and launches
// the receive and activation loops. Peers must not change after Start.
func (n *Node) Start() {
	epoch := time.Now() // fault-schedule tick zero
	for _, g := range n.groups.Load().list {
		g.epoch = epoch
	}
	n.senders = make(map[netip.AddrPort]core.ProcID, len(n.peers))
	for i, p := range n.peers {
		if p == nil || core.ProcID(i) == n.self {
			continue
		}
		n.senders[canonical(p.AddrPort())] = core.ProcID(i)
	}
	n.initTransportIO()
	n.wg.Add(2)
	go n.recvLoop()
	go n.actLoop()
}

// recvLoop moves datagrams from the socket into the bounded mailboxes and
// wakes the activation loop. It takes only the mailbox lock, so a stalled
// activation loop (slow actions, blocking sends) cannot back it up into
// kernel-buffer drops.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	r := n.newReader()
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		for _, g := range n.groups.Load().list {
			if g.inj != nil {
				// Surface expired delayed messages even on quiet links; the
				// read deadline below bounds the flush latency.
				// A released message keeps the window slot it has held
				// since it arrived.
				for _, rel := range g.inj.Flush(g.now()) {
					n.box(g, rel.From, rel.Msg)
				}
			}
		}
		_ = n.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		select {
		case <-n.stop:
			// Stop expired the deadline before the line above re-armed it.
			return
		default:
		}
		r.read(n.handleDatagram)
	}
}

// handleDatagram decodes one link frame, feeds its headers to the
// windows, and pushes each carried message through its group's fault
// plane into the mailboxes. Runs on the receive loop.
func (n *Node) handleDatagram(data []byte, from netip.AddrPort) {
	gid, links, msgs, err := wire.DecodeLinkFrame(n.decLinks[:0], n.decMsgs[:0], data)
	if err != nil {
		return // malformed or pre-v4 datagram: dropped whole (message loss)
	}
	// Keep the grown capacity for the next datagram.
	n.decLinks, n.decMsgs = links[:0], msgs[:0]
	sender, ok := n.senders[canonical(from)]
	if !ok {
		return // not a known peer: dropped
	}
	g := n.groups.Load().byID[gid]
	if g == nil {
		return // no such group here (stale or stray traffic): dropped
	}
	if g.topo != nil && !g.topo.HasEdge(sender, n.self) {
		return // not a neighbour in this group's graph: dropped
	}
	// Headers first: the acknowledgments release our own windows, and the
	// frame's messages occupy the sender's until they are consumed.
	for _, h := range links {
		g.links.Link(sender, h.Instance).Arrive(window.Header{Seq: h.Seq, Ack: h.Ack, Probe: h.Probe}, h.Count)
	}
	for _, m := range msgs {
		if g.inj != nil {
			// Per logical message, never per datagram: batching is
			// invisible to the fault plane.
			held := g.inj.Held()
			out, fate := g.inj.Filter(sender, n.self, m, g.now())
			// The arrival became len(out) mailbox entries plus whatever the
			// injector now holds back on this link: a drop frees the slot,
			// a duplicate occupies one more, holdback keeps it.
			if d := len(out) + g.inj.Held() - held - 1; d != 0 {
				g.links.Link(sender, m.Instance).Occupy(d)
			}
			if fate == core.FateDrop {
				g.emit(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
			}
			for _, dm := range out {
				n.box(g, sender, dm)
			}
			continue
		}
		n.box(g, sender, m)
	}
}

// box appends one in-transit message to its bounded mailbox and wakes
// the activation loop. The mailbox has one slot per window slot, so only
// traffic that ignored the window (or a fault-plane duplicate) can find
// it full; the model's lose-on-full rule applies.
func (n *Node) box(g *group, sender core.ProcID, m core.Message) {
	key := mailKey{gid: g.id, from: sender, instance: m.Instance}
	n.mbMu.Lock()
	b := n.mailboxes[key]
	full := len(b) >= n.capacity
	if !full {
		n.mailboxes[key] = append(b, m)
		n.boxed++
	}
	n.mbMu.Unlock()
	if full {
		// Lose-on-full: the message was in transit and is dropped at
		// the receiver — the model's link loss, not a send failure.
		g.links.Link(sender, m.Instance).Occupy(-1)
		g.mailboxDrops.Add(1)
		g.emit(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
		return
	}
	g.recvs.Add(1)
	select {
	case n.mail <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// actLoop delivers mailbox batches as soon as the receive loop signals
// them and runs every group's internal actions at the step interval. The
// tick timer is a fallback sweep and the batching deadline.
func (n *Node) actLoop() {
	defer n.wg.Done()
	stepTimer := time.NewTicker(n.stepInterval)
	defer stepTimer.Stop()
	sweep := time.NewTicker(n.tick)
	defer sweep.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.mail:
			n.drainMail()
		case <-sweep.C:
			n.drainMail()
			// Deadline flush: a Send whose section somehow did not flush
			// (or a threshold edge) never waits longer than one tick.
			n.mu.Lock()
			n.flushAll()
			n.mu.Unlock()
		case <-stepTimer.C:
			gs := n.groups.Load()
			n.mu.Lock()
			for _, g := range gs.list {
				if g.down(n.self) {
					continue // crash window: no internal actions until restart
				}
				ev := env{n: n, g: g}
				for _, m := range g.stack {
					m.Step(ev)
				}
				n.control(g)
			}
			n.flushAll()
			n.mu.Unlock()
		}
	}
}

// control runs the timer edge of every link of g, after the group's own
// Step so that anything Step sent already carried the acknowledgments:
// an echo that found no data to ride on for a full step interval leaves
// as an echo-only frame, and a window that refused a send while shut
// emits a probe. The frames join the pending batches; the caller
// flushes. Callers hold n.mu.
func (n *Node) control(g *group) {
	n.due = g.links.Tick(n.due[:0])
	for _, d := range n.due {
		if n.peers[d.Entry.Peer] == nil {
			continue
		}
		n.roomFor(d.Entry.Peer, g, d.Entry).addLink(d.Entry, d.Control == window.Probe)
	}
}

// drainMail swaps the filled mailbox buffer out (one pointer swap under
// the mailbox lock, batching the handoff) and delivers its contents
// under the action mutex, routing each mailbox to its group. Mail for a
// group inside a crash window stays in transit: it is re-boxed untouched
// and the sweep retries after the window (re-boxed mail that no longer
// fits is dropped and counted, the lose-on-full rule again).
func (n *Node) drainMail() {
	gs := n.groups.Load()
	if len(gs.list) == 1 && gs.list[0].down(n.self) {
		// Sole group crashed: leave everything boxed without swapping.
		return
	}
	n.mbMu.Lock()
	if n.boxed == 0 {
		n.mbMu.Unlock()
		return
	}
	batch := n.mailboxes
	n.mailboxes, n.spare = n.spare, n.mailboxes
	n.boxed = 0
	n.mbMu.Unlock()

	type heldBox struct {
		key  mailKey
		msgs []core.Message
	}
	var held []heldBox
	n.mu.Lock()
	for key, box := range batch {
		if len(box) == 0 {
			continue
		}
		g := gs.byID[key.gid]
		if g == nil {
			// Group detached: its in-transit mail evaporates.
			batch[key] = box[:0]
			continue
		}
		if g.down(n.self) {
			held = append(held, heldBox{key: key, msgs: append([]core.Message(nil), box...)})
			batch[key] = box[:0]
			continue
		}
		e := g.links.Link(key.from, key.instance)
		if mach, ok := g.routes[key.instance]; ok {
			ev := env{n: n, g: g}
			for _, m := range box {
				// The message leaves the link as it is handed to Deliver, so
				// a reply sent from inside Deliver already acknowledges it.
				e.Occupy(-1)
				g.emit(core.Event{Kind: core.EvDeliver, Proc: n.self, Peer: key.from, Instance: key.instance, Msg: m})
				mach.Deliver(ev, key.from, m)
			}
		} else {
			// A message addressed to an unknown instance is consumed with
			// no effect, like a receive action with a false guard.
			e.Occupy(-len(box))
		}
		batch[key] = box[:0]
	}
	n.flushAll()
	n.mu.Unlock()

	if len(held) > 0 {
		n.mbMu.Lock()
		for _, h := range held {
			b := n.mailboxes[h.key]
			for _, m := range h.msgs {
				if len(b) >= n.capacity {
					if g := gs.byID[h.key.gid]; g != nil {
						g.links.Link(h.key.from, h.key.instance).Occupy(-1)
						g.mailboxDrops.Add(1)
					}
					continue
				}
				b = append(b, m)
				n.boxed++
			}
			n.mailboxes[h.key] = b
		}
		n.mbMu.Unlock()
	}
}

// Do runs f under the node's action mutex with its default group's
// environment, then flushes any sends f made.
func (n *Node) Do(f func(env core.Env)) {
	if n.g0 == nil {
		panic("udp: Do on a node with no default group")
	}
	n.doGroup(n.g0, f)
}

func (n *Node) doGroup(g *group, f func(env core.Env)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f(env{n: n, g: g})
	n.flushAll()
}

// Stop terminates the loops and closes the socket. It is idempotent and
// safe to call from multiple goroutines concurrently.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		// Expire the receive loop's read deadline instead of waiting it out.
		_ = n.conn.SetReadDeadline(time.Now())
		n.wg.Wait()
		n.conn.Close()
	})
}
