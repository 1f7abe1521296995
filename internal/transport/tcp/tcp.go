// Package tcp runs protocol stacks over persistent TCP connections — the
// multi-host deployment substrate. Where the UDP transport demonstrates
// the paper's model on raw datagrams, this transport is the serving
// layer: nodes on different machines dial each other, stream
// length-prefixed wire frames, and survive connection loss with
// exponential-backoff redial, so a snapd fleet can span real hosts.
//
// # Channel semantics on TCP
//
// TCP provides reliable in-order delivery per connection — but the
// model's channels are lossy with a KNOWN capacity bound, and the
// transport deliberately restores both properties at its edges:
//
//   - every directed (peer, group, instance) link has a sender-side
//     window of c messages (WithCapacity, default DefaultCapacity),
//     exactly as on UDP: a slot is held from env.Send until the receiver
//     hands the message to Deliver or drops it, a send into a full
//     window is lost at the sender (core.EvSendLost, Note "window"), and
//     consumption travels back in the link headers of the reverse
//     connection's frames, in echo-only frames from the step timer, and
//     in answer to probes (internal/window is the state machine, shared
//     with UDP). Socket buffers, the outbound queue and the mailboxes
//     all sit inside the window, so none of them adds to the bound;
//   - each directed physical link (p -> q) is one connection dialed by
//     p, fed through an outbound queue sized from c; a send caught by a
//     dead or timed-out connection is dropped in transit, and a fresh
//     connection is an empty channel (the receiver retires the peer's
//     previous connection before reading the new one);
//   - each (group, sender, instance) triple gets a mailbox of c slots at
//     the receiver; only traffic that ignored the window can find it
//     full, and is dropped lose-on-full (core.EvLose);
//   - protocol stacks must be built with the same c, which must stay
//     within the wire format's one-byte flag fields (window.MaxCapacity).
//
// Connection loss is therefore just message loss, which the protocols
// tolerate by design: the retransmitting action A2 keeps fresh copies
// coming while the writer redials, and snap-stabilization holds across a
// peer's crash and restart without any connection-level recovery
// protocol.
//
// # Wire framing and groups
//
// Every frame on a connection is a 4-byte big-endian length prefix
// followed by one wire-encoded unit: the bare v1 hello that opens the
// connection, then wire v4 link frames — one message under its link's
// sequence/acknowledgment header, or a header alone (echo, probe) —
// whose uvarint group id routes them at the receiver. A Node hosts one
// or more groups — independent protocol stacks with their
// own routes, observers, topology, and fault plan — over one listener
// and one set of connections; the legacy constructor installs its stack
// as group 0 and Mux attaches further clusters with fresh ids (mux.go).
//
// # Amortized socket IO
//
// Writers coalesce: when a writer wakes it drains every frame already
// queued on its link and hands them to the kernel as one vectored write
// (writev via net.Buffers), so a retransmission burst costs one syscall,
// not one per message. Readers amortize symmetrically through a buffered
// reader sized to pull many frames per socket read. Stats separates
// message counts from frame and syscall counts so the amortization is
// observable.
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
// then moves frames into the bounded mailboxes. A peer restart simply
// kills both directions: the reader sees EOF and exits, the writer's
// next write fails and it redials until the new process accepts.
//
// # Concurrency structure
//
// The action mutex / mailbox lock split of the UDP transport (DESIGN.md
// §7) carries over: readers append under the mailbox lock and signal a
// wakeup; the activation loop swaps the mailbox map and delivers —
// running any resulting sends — under the action mutex only. Sends
// enqueue encoded frames and never block: a blocking socket write can
// only stall its own link's writer goroutine, never a protocol action.
//
// The fault plane acts per logical message at the mailbox boundary:
// every decoded message passes its group's injector individually, so §9
// semantics are independent of connection framing, and each group's
// injector stream is isolated from its siblings on the shared sockets.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
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

// Frame format: a 4-byte big-endian length prefix followed by one wire
// frame — the bare v1 hello, then v4 link frames. maxFrame bounds the
// declared length against memory exhaustion from a malformed or hostile
// peer; the headroom over a maximal v2 record covers the link header and
// the record prefix. A violation is a protocol error and closes the
// connection.
const maxFrame = 2*wire.MaxBlobLen + 8<<10

// sendVecCap is the default bound on how many queued frames one
// vectored write carries (see WithBatch).
const sendVecCap = 32

// helloInstance marks the identification frame that opens every dialed
// connection: a regular wire message whose B.Num carries the dialer's
// process index. It is consumed by the transport and never delivered.
const helloInstance = "tcp/hello"

// tcpFaultSalt namespaces this substrate's injector seeds within the
// plan's rng.Mix hierarchy (sim, runtime, and udp use their own salts).
const tcpFaultSalt = 0x7c

// Option configures a Node.
type Option func(*Node)

// WithCapacity sets the channel-capacity bound c the node enforces on
// every directed (peer, group, instance) link (default DefaultCapacity):
// the sender-side window and the receive mailbox are both c messages,
// and the per-connection outbound queue is sized from it. The protocol
// stacks must be built with the same bound. The transport accepts any
// c >= 1; stacks that carry handshake flags are limited to
// window.MaxCapacity by the wire format's one-byte flag fields.
func WithCapacity(c int) Option {
	return func(n *Node) { n.capacity = c }
}

// WithBatch bounds how many queued frames one vectored write may carry
// (default 32). WithBatch(1) gives every frame its own write system
// call — the pre-amortization behavior. Unlike UDP's coalescing knob
// this is purely a syscall bound: frames are never merged or delayed,
// so the bytes on the wire are identical at every setting.
func WithBatch(k int) Option {
	return func(n *Node) { n.vecCap = k }
}

// WithTick sets the fallback mailbox sweep interval (default 1ms).
// Mailbox drains are notification-driven; the sweep is a safety net and
// the cadence at which delayed fault-plan messages are surfaced.
func WithTick(d time.Duration) Option {
	return func(n *Node) { n.tick = d }
}

// WithStepInterval sets the pacing of internal protocol actions (default
// 2ms) — the retransmission interval, exactly as on UDP.
func WithStepInterval(d time.Duration) Option {
	return func(n *Node) { n.stepInterval = d }
}

// WithDialBackoff sets the redial backoff range (default 25ms..1s): the
// first redial after a connection loss waits min, doubling up to max.
func WithDialBackoff(min, max time.Duration) Option {
	return func(n *Node) { n.dialMin, n.dialMax = min, max }
}

// WithWriteTimeout bounds every connect and frame write (default 2s). A
// write that cannot complete within it is treated as a lost message and
// a lost connection.
func WithWriteTimeout(d time.Duration) Option {
	return func(n *Node) { n.writeTimeout = d }
}

// WithObserver subscribes an event observer on the node's default group.
// Callbacks arrive concurrently from reader goroutines (mailbox-full
// EvLose), writer goroutines (EvSendLost on dead connections), and the
// activation loop, so the observer must be goroutine-safe.
func WithObserver(o core.Observer) Option {
	return func(n *Node) { n.obs0 = append(n.obs0, o) }
}

// WithTopology declares the communication graph of the node's default
// group: sends to non-neighbours are dropped (and counted) at the
// sender, inbound connections from non-neighbours are rejected at the
// hello, and the installed fault plan is validated against the edge set.
// The default (nil) is the complete graph.
func WithTopology(t *core.Topology) Option {
	return func(n *Node) { n.topo0 = t }
}

// WithFaults installs a fault-injection plan (see core.FaultPlan) on the
// node's default group, interposed at the mailbox boundary exactly as on
// UDP: every decoded message from a known peer — individually, whatever
// frame carried it — passes the group's injector before it is boxed,
// which may drop, duplicate, corrupt, reorder, or delay it, honor
// partition windows, and silence the group inside crash windows (no
// internal actions, no mailbox drains, arrivals consumed). The injector
// is seeded rng.Mix(plan.Seed, salt, self); schedule windows are
// measured in plan.Unit ticks of wall time from Start. TCP's own
// connection losses compose underneath the plan.
func WithFaults(plan *core.FaultPlan) Option {
	return func(n *Node) { n.fault0 = plan }
}

// group is one protocol stack hosted on a node: an independent cluster
// member with its own routing, observers, topology, fault plane, and
// message counters, multiplexed with its siblings over the node's
// connections by the frame's group id.
type group struct {
	id        uint64
	stack     core.Stack
	routes    map[string]core.Machine
	topo      *core.Topology
	observers core.MultiObserver
	fault     *core.FaultPlan
	faultUnit time.Duration
	epoch     time.Time // fault-schedule tick zero; set before the group is visible to the loops

	// injMu guards the injector: TCP has one reader per inbound
	// connection, so the (not goroutine-safe) injector needs a lock even
	// within one group.
	injMu sync.Mutex
	inj   *core.Injector

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
		return nil, fmt.Errorf("tcp: topology over %d processes, %d peers", topo.N(), nProcs)
	}
	g := &group{
		id:        id,
		stack:     stack,
		routes:    stack.ByInstance(),
		topo:      topo,
		observers: obs,
		fault:     plan,
		// A random first sequence keeps a restarted daemon's numbering
		// clear of acknowledgments addressed to its previous life.
		links: window.NewTable(capacity, 1+uint64(rand.Uint32()>>1)),
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("tcp: %w", err)
		}
		if err := plan.ValidateTopology(topo); err != nil {
			return nil, fmt.Errorf("tcp: %w", err)
		}
		g.faultUnit = plan.TickUnit()
		seed := rng.Mix(plan.Seed, tcpFaultSalt, uint64(self))
		if id != 0 {
			// Extra groups get distinct injector streams; group 0 keeps the
			// exact legacy seeding so recorded runs stay reproducible.
			seed = rng.Mix(plan.Seed, tcpFaultSalt, uint64(self), id)
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

// Kinds of queued frame: one message, or a control frame.
const (
	frameData = iota
	frameEcho
	frameProbe
)

// outFrame is one encoded frame queued on a link, tagged with the group
// whose counters and observers account for its fate.
type outFrame struct {
	b    []byte
	g    *group
	kind uint8
}

// sendQueueSlots sizes a connection's outbound queue from the capacity
// bound: eight (group, instance) links' worth of full windows plus a
// control frame each. Every queued message holds a window slot, so the
// queue adds nothing to the bound; a node multiplexing more links than
// that onto one connection sees the overflow as sender-side loss.
func sendQueueSlots(capacity int) int { return 8 * (capacity + 1) }

// link is one outgoing directed edge: a bounded queue of encoded frames
// drained by a writer goroutine that owns the connection lifecycle.
type link struct {
	peer core.ProcID
	addr string
	q    chan outFrame
}

// Node is one process bound to a TCP listener, hosting one or more
// groups.
type Node struct {
	self         core.ProcID
	ln           net.Listener
	peerAddrs    []string
	capacity     int
	vecCap       int
	tick         time.Duration
	stepInterval time.Duration
	dialMin      time.Duration
	dialMax      time.Duration
	writeTimeout time.Duration

	// Group-0 staging, written by options and consumed by NewNode; a
	// mux-hosted node (nil stack) must not carry any of these. topo0 also
	// shapes the socket layer itself — link wiring at Start and hello
	// admission follow the default group's graph — and is nil on a mux
	// node, whose groups restrict traffic per message instead.
	topo0  *core.Topology
	fault0 *core.FaultPlan
	obs0   core.MultiObserver

	g0 *group // the default group (nil on mux-hosted nodes)

	gmu    sync.Mutex // serializes attach/detach
	groups atomic.Pointer[groupSet]

	// mu is the action mutex: it makes stack actions (Step, Deliver, Do)
	// atomic. Sends performed under it only encode and enqueue — socket
	// writes happen on the writer goroutines — so no protocol action ever
	// blocks on the network.
	mu      sync.Mutex
	sendOne [1]core.Message    // single-record scratch, guarded by mu
	hdrOne  [1]wire.LinkHeader // single-header scratch, guarded by mu
	due     []window.Due       // step-timer scratch, guarded by mu

	out []*link // indexed by peer; nil for self, unwired, or non-neighbour

	// mbMu guards the double-buffered mailboxes (DESIGN.md §7) and is
	// never held across socket operations or protocol actions.
	mbMu      sync.Mutex
	mailboxes map[mailKey][]core.Message
	spare     map[mailKey][]core.Message
	boxed     int
	mail      chan struct{}

	redials     atomic.Int64
	linkSent    []atomic.Int64
	linkRecvd   []atomic.Int64
	linkDropped []atomic.Int64

	// Socket-level IO counters, shared by every group the node hosts.
	sendFrames   atomic.Int64
	sendSyscalls atomic.Int64
	recvFrames   atomic.Int64
	recvSyscalls atomic.Int64

	// connMu guards the accepted-connection registry used for teardown —
	// Stop closes every registered connection to unblock its reader — and
	// the per-peer record of the connection currently speaking for it.
	connMu   sync.Mutex
	accepted map[net.Conn]struct{}
	inbound  map[core.ProcID]*inboundConn
	closed   bool

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type mailKey struct {
	gid      uint64
	from     core.ProcID
	instance string
}

// Stats counts transport-level events. All counters are safe to read
// concurrently with the node's loops. The message counters (Sends,
// Recvs, SendDrops, MailboxDrops, Faults) belong to the node's default
// group; the frame, syscall, redial, and link counters are per socket
// and therefore shared by every group the node hosts.
type Stats struct {
	// Sends counts messages accepted into an outbound link queue (and
	// therefore into the model's channel).
	Sends int64
	// Recvs counts messages accepted into a mailbox.
	Recvs int64
	// SendDrops counts messages lost at the sender: sends refused by a
	// full link window, sends to non-neighbours, unencodable payloads,
	// full outbound queues, and writes caught by a dead or timed-out
	// connection.
	SendDrops int64
	// MailboxDrops counts messages dropped at a full receive mailbox (the
	// model's lose-on-full rule, reported as core.EvLose).
	MailboxDrops int64
	// Redials counts connection establishments beyond each link's first —
	// the dial/accept lifecycle recovering from a lost connection.
	Redials int64
	// SendFrames and RecvFrames count length-prefixed wire frames moved
	// on the node's connections (the stream analogue of datagrams).
	SendFrames int64
	RecvFrames int64
	// SendSyscalls counts vectored socket writes — each covers every
	// frame queued on its link at wake-up — and RecvSyscalls counts
	// buffered socket reads, each pulling as many frames as the kernel
	// had; SendFrames/SendSyscalls is the write amortization.
	SendSyscalls int64
	RecvSyscalls int64
	// EchoFrames and ProbeFrames count this group's control frames (a
	// link header, no message): acknowledgments that found no data to
	// ride on, and probes sent at a shut window. Both are also counted
	// in SendFrames.
	EchoFrames  int64
	ProbeFrames int64
	// Links holds per-directed-link counters for every peer; the window
	// gauges are this group's, the message counters the socket's.
	Links []core.LinkStats
	// Faults counts the faults injected at this node's mailbox boundary
	// by the installed FaultPlan; zero without one.
	Faults core.FaultStats
}

// Stats returns a snapshot of the transport counters for the default
// group (plus the socket-wide frame/syscall counters).
func (n *Node) Stats() Stats {
	if n.g0 != nil {
		return n.groupStats(n.g0)
	}
	return n.groupStats(&group{})
}

func (n *Node) groupStats(g *group) Stats {
	s := Stats{
		Sends:        g.sends.Load(),
		Recvs:        g.recvs.Load(),
		SendDrops:    g.sendDrops.Load(),
		MailboxDrops: g.mailboxDrops.Load(),
		Redials:      n.redials.Load(),
		SendFrames:   n.sendFrames.Load(),
		RecvFrames:   n.recvFrames.Load(),
		SendSyscalls: n.sendSyscalls.Load(),
		RecvSyscalls: n.recvSyscalls.Load(),
		EchoFrames:   g.echoFrames.Load(),
		ProbeFrames:  g.probeFrames.Load(),
	}
	for p := range n.linkSent {
		if core.ProcID(p) == n.self {
			continue
		}
		s.Links = append(s.Links, core.LinkStats{
			Peer:     core.ProcID(p),
			Sent:     n.linkSent[p].Load(),
			Received: n.linkRecvd[p].Load(),
			Dropped:  n.linkDropped[p].Load(),
		})
	}
	if g.links != nil {
		g.links.FillLinkStats(s.Links)
	}
	if g.inj != nil {
		g.injMu.Lock()
		s.Faults = g.inj.Stats()
		g.injMu.Unlock()
	}
	return s
}

// transportStats assembles the substrate-agnostic snapshot for one
// hosted group. Frames map onto the datagram fields: on a stream
// transport the length-prefixed frame is the unit the socket moves.
func (n *Node) transportStats(g *group) core.TransportStats {
	s := n.groupStats(g)
	return core.TransportStats{
		Addr:          n.Addr(),
		Sends:         s.Sends,
		Recvs:         s.Recvs,
		SendDrops:     s.SendDrops,
		MailboxDrops:  s.MailboxDrops,
		Redials:       s.Redials,
		SendDatagrams: s.SendFrames,
		RecvDatagrams: s.RecvFrames,
		SendSyscalls:  s.SendSyscalls,
		RecvSyscalls:  s.RecvSyscalls,
		EchoFrames:    s.EchoFrames,
		ProbeFrames:   s.ProbeFrames,
		Capacity:      n.capacity,
		Links:         s.Links,
		Faults:        s.Faults,
	}
}

// NewNode binds process self to laddr. peers maps every process ID
// (including self, whose entry is ignored) to its address; empty entries
// may be wired later with SetPeer, before Start. stack becomes the
// node's default group (group 0); a nil stack builds a bare mux-style
// node hosting no groups yet.
func NewNode(self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...Option) (*Node, error) {
	if int(self) >= len(peers) || self < 0 {
		return nil, fmt.Errorf("tcp: self %d outside peer list of %d", self, len(peers))
	}
	ln, err := net.Listen("tcp", laddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %q: %w", laddr, err)
	}
	n := &Node{
		self:         self,
		ln:           ln,
		peerAddrs:    append([]string(nil), peers...),
		capacity:     DefaultCapacity,
		vecCap:       sendVecCap,
		tick:         time.Millisecond,
		stepInterval: 2 * time.Millisecond,
		dialMin:      25 * time.Millisecond,
		dialMax:      time.Second,
		writeTimeout: 2 * time.Second,
		mailboxes:    make(map[mailKey][]core.Message),
		spare:        make(map[mailKey][]core.Message),
		mail:         make(chan struct{}, 1),
		accepted:     make(map[net.Conn]struct{}),
		inbound:      make(map[core.ProcID]*inboundConn),
		stop:         make(chan struct{}),
		linkSent:     make([]atomic.Int64, len(peers)),
		linkRecvd:    make([]atomic.Int64, len(peers)),
		linkDropped:  make([]atomic.Int64, len(peers)),
	}
	n.groups.Store(&groupSet{byID: map[uint64]*group{}})
	for _, opt := range opts {
		opt(n)
	}
	fail := func(err error) (*Node, error) {
		ln.Close()
		return nil, err
	}
	if n.capacity < 1 || n.vecCap < 1 {
		return fail(fmt.Errorf("tcp: invalid capacity %d / batch %d", n.capacity, n.vecCap))
	}
	if n.dialMin <= 0 || n.dialMax < n.dialMin || n.writeTimeout <= 0 {
		return fail(fmt.Errorf("tcp: invalid backoff %v..%v / write timeout %v", n.dialMin, n.dialMax, n.writeTimeout))
	}
	if stack == nil {
		if n.topo0 != nil || n.fault0 != nil || len(n.obs0) > 0 {
			return fail(fmt.Errorf("tcp: group option on a node with no default group"))
		}
		return n, nil
	}
	g, err := buildGroup(0, stack, n.topo0, n.fault0, n.obs0, len(peers), self, n.capacity)
	if err != nil {
		return fail(err)
	}
	n.g0 = g
	n.addGroup(g)
	return n, nil
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
// drain and inbound frames for it are dropped.
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
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetPeer sets the address of peer id after construction, enabling
// two-phase setup: bind every listener with port 0 first, then wire the
// learned addresses. Must be called before Start.
func (n *Node) SetPeer(id core.ProcID, addr string) { n.peerAddrs[id] = addr }

// Start launches the accept and activation loops and one writer per
// wired outgoing link. Peers must not change after Start.
func (n *Node) Start() {
	epoch := time.Now() // fault-schedule tick zero
	for _, g := range n.groups.Load().list {
		g.epoch = epoch
	}
	n.out = make([]*link, len(n.peerAddrs))
	for p, addr := range n.peerAddrs {
		id := core.ProcID(p)
		if id == n.self || addr == "" {
			continue
		}
		if n.topo0 != nil && !n.topo0.HasEdge(n.self, id) {
			// A wired address that is not a neighbour of the default group
			// never gets a link: its sends vanish at the sender, counted,
			// like on UDP. (A mux node has no default topology and wires
			// everything; its groups restrict traffic per message.)
			continue
		}
		l := &link{peer: id, addr: addr, q: make(chan outFrame, sendQueueSlots(n.capacity))}
		n.out[p] = l
		n.wg.Add(1)
		go n.writeLoop(l)
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.actLoop()
}

// framePool recycles encoded frames between Send (producer) and the
// writer goroutines (consumer), so steady-state sending allocates only
// when a frame outgrows its recycled buffer.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// env implements core.Env for one group; use only under n.mu.
type env struct {
	n *Node
	g *group
}

func (v env) Self() core.ProcID { return v.n.self }
func (v env) N() int            { return len(v.n.peerAddrs) }

func (v env) Send(to core.ProcID, m core.Message) {
	n, g := v.n, v.g
	if int(to) < 0 || int(to) >= len(n.peerAddrs) {
		return
	}
	if g.topo != nil && !g.topo.HasEdge(n.self, to) {
		// Not a neighbour under the topology: no channel exists, the send
		// vanishes at the sender (and is counted, unlike an unwired peer).
		g.sendDrops.Add(1)
		g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: "no edge"})
		return
	}
	l := n.out[to]
	if l == nil {
		return
	}
	lost := func(note string) {
		g.sendDrops.Add(1)
		n.linkDropped[to].Add(1)
		g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: note})
	}
	e := g.links.Link(to, m.Instance)
	if !e.Admit() {
		// The link already holds c unconsumed messages: the send is lost
		// at the sender, the model's rule for a full channel.
		lost("window")
		return
	}
	n.sendOne[0] = m
	err := n.enqueue(l, g, e, frameData, n.sendOne[:])
	n.sendOne[0] = core.Message{}
	if err != nil {
		// Unencodable, or more links than the queue was sized for share
		// this connection: the message never entered the link.
		e.Cancel()
		lost(err.Error())
		return
	}
	g.sends.Add(1)
	n.linkSent[to].Add(1)
	g.emit(core.Event{Kind: core.EvSend, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m})
}

// errQueueFull is enqueue's verdict on a full outbound queue.
var errQueueFull = errors.New("queue full")

// enqueue frames msgs (one message for frameData, none for a control
// frame) under e's freshly stamped link header and queues the frame on
// l. All enqueues happen under n.mu, so the room check cannot race
// another producer. Callers hold n.mu.
func (n *Node) enqueue(l *link, g *group, e *window.Entry, kind uint8, msgs []core.Message) error {
	if len(l.q) == cap(l.q) {
		return errQueueFull
	}
	h := e.Stamp(kind == frameProbe)
	n.hdrOne[0] = wire.LinkHeader{Instance: e.Instance, Seq: h.Seq, Ack: h.Ack, Probe: h.Probe}
	bp := framePool.Get().(*[]byte)
	buf, err := wire.AppendLinkFrame(append((*bp)[:0], 0, 0, 0, 0), g.id, n.hdrOne[:], msgs)
	if err != nil {
		framePool.Put(bp)
		return err
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	*bp = buf
	l.q <- outFrame{b: buf, g: g, kind: kind}
	return nil
}

// control runs the timer edge of every link of g, after the group's own
// Step so that anything Step sent already carried the acknowledgments:
// an echo that found no data to ride on for a full step interval leaves
// as an echo-only frame, and a window that refused a send while shut
// emits a probe. A control frame that finds its queue full is dropped;
// the next tick asks again. Callers hold n.mu.
func (n *Node) control(g *group) {
	n.due = g.links.Tick(n.due[:0])
	for _, d := range n.due {
		if l := n.out[d.Entry.Peer]; l != nil {
			kind := uint8(frameEcho)
			if d.Control == window.Probe {
				kind = frameProbe
			}
			_ = n.enqueue(l, g, d.Entry, kind, nil)
		}
	}
}

func (v env) Emit(ev core.Event) {
	ev.Proc = v.n.self
	v.g.emit(ev)
}

// helloFrame encodes this node's identification frame: a bare wire v1
// record, the one frame on a connection that is not a link frame.
func (n *Node) helloFrame() []byte {
	buf := []byte{0, 0, 0, 0}
	buf, err := wire.AppendEncode(buf, core.Message{
		Instance: helloInstance,
		Kind:     "HELLO",
		B:        core.Payload{Num: int64(n.self)},
	})
	if err != nil {
		panic("tcp: hello frame unencodable: " + err.Error())
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// dial establishes one connection for l: connect, enable keepalive (so a
// silently dead peer eventually fails the writer out of its connection),
// and identify with the hello frame.
func (n *Node) dial(l *link) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", l.addr, n.writeTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
		_ = tc.SetNoDelay(true)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(n.writeTimeout))
	if _, err := conn.Write(n.helloFrame()); err != nil {
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
// link is back.
func (n *Node) writeLoop(l *link) {
	defer n.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := n.dialMin
	dialed := 0
	batch := make([]outFrame, 0, n.vecCap)
	vec := make(net.Buffers, 0, n.vecCap)
	for {
		if conn == nil {
			c, err := n.dial(l)
			if err != nil {
				select {
				case <-n.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > n.dialMax {
					backoff = n.dialMax
				}
				continue
			}
			conn = c
			backoff = n.dialMin
			dialed++
			if dialed > 1 {
				n.redials.Add(1)
			}
		}
		select {
		case <-n.stop:
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
			_ = conn.SetWriteDeadline(time.Now().Add(n.writeTimeout))
			_, err := (&vec).WriteTo(conn)
			n.sendSyscalls.Add(1)
			// WriteTo consumed the written prefix of vec; what remains (a
			// partially written first frame included) was lost with the
			// connection.
			lost := len(vec)
			for _, bf := range batch {
				fp := bf.b[:0]
				framePool.Put(&fp)
			}
			n.sendFrames.Add(int64(len(batch) - lost))
			for _, bf := range batch[:len(batch)-lost] {
				switch bf.kind {
				case frameEcho:
					bf.g.echoFrames.Add(1)
				case frameProbe:
					bf.g.probeFrames.Add(1)
				}
			}
			if err != nil {
				conn.Close()
				conn = nil
				for _, bf := range batch[len(batch)-lost:] {
					if bf.kind != frameData {
						continue // a lost control frame carried no message
					}
					// The message keeps its window slot until an
					// acknowledgment or a probe over the next connection
					// proves it gone.
					bf.g.sendDrops.Add(1)
					n.linkDropped[l.peer].Add(1)
					bf.g.emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: l.peer, Note: "connection lost"})
				}
			}
		}
	}
}

// register adds an accepted connection to the teardown registry; a false
// return means the node already stopped and the caller must close conn.
func (n *Node) register(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closed {
		return false
	}
	n.accepted[conn] = struct{}{}
	return true
}

func (n *Node) unregister(conn net.Conn) {
	n.connMu.Lock()
	delete(n.accepted, conn)
	n.connMu.Unlock()
}

// acceptLoop admits inbound connections and spawns one reader per
// connection. Transient accept errors back off briefly; the loop exits
// when the listener closes at Stop.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			case <-time.After(5 * time.Millisecond):
				continue
			}
		}
		if !n.register(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// errBadHello rejects connections that do not open with a valid
// identification frame.
var errBadHello = errors.New("tcp: invalid hello")

// readHello consumes and validates the identification frame, returning
// the peer index the connection speaks for.
func (n *Node) readHello(conn net.Conn, src io.Reader, buf []byte) (core.ProcID, error) {
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
	if int64(id) != m.B.Num || int(id) < 0 || int(id) >= len(n.peerAddrs) || id == n.self {
		return 0, errBadHello
	}
	if n.topo0 != nil && !n.topo0.HasEdge(id, n.self) {
		return 0, fmt.Errorf("tcp: peer %d is not a neighbour", id)
	}
	// When the peer's address is configured, the connection must come
	// from that host (ports are ephemeral on the dialing side). A fleet
	// config is therefore also a minimal allowlist; an unwired peer is
	// accepted on its own claim, mirroring UDP's unwired-sender drop in
	// reverse (TCP must accept before it can identify).
	if want := n.peerAddrs[id]; want != "" {
		wantHost, _, err1 := net.SplitHostPort(want)
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
// nothing it still buffered is boxed after the new connection's first
// frame. That is what makes a fresh connection an empty channel — a
// probe over it cannot overtake data of the old one. It returns false
// when the node is stopping.
func (n *Node) adopt(sender core.ProcID, conn net.Conn, done chan struct{}) bool {
	n.connMu.Lock()
	prev := n.inbound[sender]
	n.inbound[sender] = &inboundConn{conn: conn, done: done}
	closed := n.closed
	n.connMu.Unlock()
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
	conn  net.Conn
	calls *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	sz, err := r.conn.Read(p)
	if sz > 0 {
		r.calls.Add(1)
	}
	return sz, err
}

// readLoop moves one connection's frames into the bounded mailboxes,
// routing each decoded message to its group. It exits on any read error
// — EOF when the peer closes or restarts, a local close from Stop — and
// the dialing side redials. Reads go through a buffered reader sized to
// pull many frames per socket read.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	done := make(chan struct{})
	defer close(done)
	defer n.unregister(conn)
	defer conn.Close()
	src := bufio.NewReaderSize(&countingReader{conn: conn, calls: &n.recvSyscalls}, 64<<10)
	buf := make([]byte, 0, 4096)
	sender, err := n.readHello(conn, src, buf[:cap(buf)])
	if err != nil || !n.adopt(sender, conn, done) {
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
		n.recvFrames.Add(1)
		g := n.groups.Load().byID[gid]
		if g == nil {
			continue // no such group here (stale or stray traffic): dropped
		}
		if g.topo != nil && !g.topo.HasEdge(sender, n.self) {
			continue // not a neighbour in this group's graph: dropped
		}
		// Headers first: the acknowledgments release our own windows, and
		// the frame's messages occupy the sender's until consumed.
		for _, h := range links {
			g.links.Link(sender, h.Instance).Arrive(window.Header{Seq: h.Seq, Ack: h.Ack, Probe: h.Probe}, h.Count)
		}
		for _, m := range msgs {
			if g.inj != nil {
				// Per logical message, never per frame: framing is invisible
				// to the fault plane.
				g.injMu.Lock()
				held := g.inj.Held()
				out, fate := g.inj.Filter(sender, n.self, m, g.now())
				// The arrival became len(out) mailbox entries plus whatever
				// the injector now holds back on this link: a drop frees the
				// slot, a duplicate occupies one more, holdback keeps it.
				d := len(out) + g.inj.Held() - held - 1
				// Filter returns the injector's reusable scratch slice; another
				// connection's reader may call Filter (rewriting it) as soon as
				// the lock drops, so snapshot it first.
				if len(out) > 0 {
					out = append([]core.Message(nil), out...)
				}
				g.injMu.Unlock()
				if d != 0 {
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
		// Lose-on-full: the message was in transit and is dropped at the
		// receiver — the model's link loss, not a send failure.
		g.links.Link(sender, m.Instance).Occupy(-1)
		g.mailboxDrops.Add(1)
		n.linkDropped[sender].Add(1)
		g.emit(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
		return
	}
	g.recvs.Add(1)
	n.linkRecvd[sender].Add(1)
	select {
	case n.mail <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// actLoop delivers mailbox batches as soon as a reader signals them and
// runs every group's internal actions at the step interval; the tick
// timer is the fallback sweep and the cadence at which delayed
// fault-plan messages surface.
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
			n.flushDelayed()
			n.drainMail()
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
			n.mu.Unlock()
		}
	}
}

// flushDelayed surfaces expired delayed messages even on quiet links.
func (n *Node) flushDelayed() {
	for _, g := range n.groups.Load().list {
		if g.inj == nil {
			continue
		}
		g.injMu.Lock()
		rel := g.inj.Flush(g.now())
		g.injMu.Unlock()
		for _, r := range rel {
			// A released message keeps the window slot it has held since
			// it arrived.
			n.box(g, r.From, r.Msg)
		}
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
// environment.
func (n *Node) Do(f func(env core.Env)) {
	if n.g0 == nil {
		panic("tcp: Do on a node with no default group")
	}
	n.doGroup(n.g0, f)
}

func (n *Node) doGroup(g *group, f func(env core.Env)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f(env{n: n, g: g})
}

// Stop terminates the loops, closes the listener and every connection.
// It is idempotent and safe to call from multiple goroutines.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.ln.Close()
		n.connMu.Lock()
		n.closed = true
		for c := range n.accepted {
			c.Close()
		}
		n.connMu.Unlock()
		n.wg.Wait()
	})
}
