// Package engine is the one concurrent engine, behind all three
// concurrent substrates: everything between a protocol stack and a link
// that does not depend on what kind of link it is. internal/transport/udp
// and internal/transport/tcp implement the narrow Link interface below
// over sockets — datagram I/O and connection lifecycle respectively —
// memory.go implements it in memory (snapstab.Runtime), and the engine
// never asks which of them it is driving.
//
// # Channel semantics
//
// The paper's channels are FIFO, lossy, and of KNOWN capacity c
// (Theorem 1 makes the bound mandatory). Neither UDP nor TCP provides
// the bound, so the engine enforces it (DESIGN.md §7):
//
//   - every directed (peer, group, instance) link has a sender-side
//     window of c messages (WithCapacity, default DefaultCapacity), held
//     from env.Send until the receiver hands the message to Deliver or
//     drops it; a send into a full window is lost at the sender
//     (core.EvSendLost, Note "window"), and a shut window costs one
//     turnaround. internal/window is the link end: the window, the
//     link's last message and the rules between them;
//   - each (group, sender, instance) triple gets a mailbox of c slots at
//     the receiver. A window-admitted message always finds room; the
//     bound only bites on traffic that ignores the window (a hostile or
//     buggy peer, fault-plane duplicates), which is dropped lose-on-full
//     and reported as core.EvLose;
//   - the protocol stacks must be built with the same c (the flag domain
//     is 2c+2 values, so every unit of c costs two handshake rounds per
//     peer per request: the bound is worth keeping small).
//
// # Groups: many clusters, one socket
//
// A Node hosts groups, each an independent protocol stack with its own
// routes, observers, topology, fault plan and counters, all sharing the
// node's link and timer. The wire frame's group id routes every received
// message to its group's channels. A node is built bare, and every group
// enters it one way, attached: Host one stack as group 0 on a node of its
// own, NewCluster one per node as group 0 on nodes of its own, Mux.Attach
// a cluster under a fresh id on every node it shares.
//
// # Concurrency structure
//
// Every (group, peer, instance) channel is one record, a Chan, built as
// its group attaches: its link end (window.End: the last message sent,
// under the action mutex mu, and the window, under the node's mailbox
// lock mbMu) and its mailbox (under mbMu, with the list of channels that
// have mail). The receive side and the drain are coupled only through
// that list: a frame's arrival feeds the windows and boxes the decoded
// messages; the drain section, under mu, swaps the list out, takes each
// listed channel's mailbox and delivers it, performing any resulting
// sends. A node has one timer, a time.AfterFunc, and at most one
// activation loop, carry, which takes a wakeup or the timer and runs one
// section. The links differ only in who may drain and whether that loop
// parks. A socket reader only boxes and wakes: the loop runs from Start
// to Stop and drains. A node on the in-memory link owns no goroutine
// while its load quiesces: the link hands a section's frames over on the
// sender's goroutine and then settles each receiver, which drains right
// there if a TryLock of its mu succeeds (TryLock never waits); if it
// fails, the section holding mu drains as it releases the lock
// (release). A load that outlasts a release's budget starts the loop,
// which ends once the node's timer parks. The lock order is mu → mbMu
// (snapvet's lockorder).
//
// The engine is event-driven end to end (DESIGN.md §7): a section that
// delivered mail ends, before its frames leave, by stepping the stacks it
// delivered to and re-evaluating their awaited conditions
// (Group.settle); what a Step would send again, the link end holds
// back until its repeat deadline. The node's timer runs one section,
// the step tick — on the node's loop while one runs, else on the
// timer's own goroutine: every group steps on the tick path, so the
// links that came due repeat, and the windows' control and the fault
// plane's delays run. It is set for the earliest thing owed — an armed
// link's deadline, or a step interval on while a window owes control, a
// fault plan runs or a request waits — and parks when nothing is.
//
// # One framer
//
// The engine packs every frame every link ships (frame.go, DESIGN.md
// §13): one open frame per (peer, group), closed — and its headers
// stamped — when it is full or the atomic section ends, and all of a
// section's frames go to the link in one Write under mu. So a link needs
// no lock of its own for what it writes, nothing the receive side does
// ever waits on a send, and udp, tcp and the in-memory link carry the
// same frames.
//
// The fault plane (DESIGN.md §9) acts per logical message at the mailbox
// boundary, never per frame: every decoded message passes its group's
// injector individually before it is put in a mailbox, so §9 semantics
// and seed reproducibility are independent of how messages were packed.
// Delayed messages surface at the head of the step tick.
package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/window"
	"github.com/snapstab/snapstab/internal/wire"
)

// DefaultCapacity is the per-link capacity bound c enforced by default:
// the window of every directed (peer, group, instance) link, the mailbox
// size, and the bound protocol stacks must be built with (flag top
// 2c+2 = 4). It is the paper's c, the smallest there is (DESIGN.md §7):
// a request costs 2c+2 flag rounds per peer, so c = 1 sends a third
// fewer frames than c = 2. An endpoint that both answers and initiates
// on one link often finds its one slot held by its own answer; the
// refused flag then leaves one turnaround later, when the
// acknowledgment its probe asked for reopens the window.
const DefaultCapacity = 1

// stepInterval paces repetition (window.Out has the rule): a link's
// last message is repeated half an interval after it left new, then once
// per interval while the link stays silent; new information never waits
// for it. Unpaced retransmission would flood the path and stall the
// handshake behind its own queue. It is also the step tick's period
// while a tick is owed for something other than a repeat: it ages echoes
// and sends probes, surfaces delayed fault-plan messages, retries mail
// held through a crash window and re-evaluates pending requests.
//
// The first repeat waits a fixed half interval, not a multiple of a
// measured turnaround. Go's netpoller sleeps in whole milliseconds, so a
// deadline under 1 ms fires at about 1 ms anyway (bench/perf reads
// env.timer_granularity_us ≈ 860–1,020 on a 2-core box). Measured there
// on tcp-lossy: a 50 µs floor left setup_s at 2.21 ms, against 2.04–2.07
// for the fixed 1 ms, and cost udp-contend 3.4 % more frames_per_req in
// spurious repeats; an RFC 6298 estimator clamped to [1 ms, 2 ms] read
// 2.22–2.35 ms, because cold-cycle turnarounds (p50 180 µs, p90 350 µs)
// inflate it past its floor.
const stepInterval = 2 * time.Millisecond

// never is a node timer's time for "none": nothing owed, timer parked.
const never = time.Duration(math.MaxInt64)

// options is the option set of a node (capacity, batch, topology) and of
// a group (topology, faults, observers).
type options struct {
	capacity  int
	batch     int
	observers core.MultiObserver
	topology  *core.Topology
	faults    *core.FaultPlan
}

// nodeDefaults are a node's options before any Option.
var nodeDefaults = options{capacity: DefaultCapacity, batch: defaultBatch}

// apply returns o with opts applied.
func apply(o options, opts []Option) options {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Option configures a mux's nodes (NewMux), a group attached to them
// (Mux.Attach), or nodes of a group's own and the group (Host,
// NewCluster).
type Option func(*options)

// WithCapacity sets the channel-capacity bound c the node enforces on
// every directed (peer, group, instance) link (default DefaultCapacity):
// the sender-side window and the receive mailbox are both c messages.
// The protocol stacks must be built with the same bound. The engine
// accepts any c >= 1; stacks that carry handshake flags are limited to
// window.MaxCapacity by the wire format's one-byte flag fields.
func WithCapacity(c int) Option {
	return func(o *options) { o.capacity = c }
}

// WithBatch bounds how many messages one frame carries (default 16, at
// most wire.MaxBatch), on every link alike. WithBatch(1) gives every
// message a frame of its own.
func WithBatch(k int) Option {
	return func(o *options) { o.batch = k }
}

// WithObserver subscribes an event observer on a group. Every observer
// receives the protocol events; the traffic kinds (EvSend, EvSendLost,
// EvDeliver, EvLose) go only to observers that are not a
// core.ProtocolObserver, and are not built at all when there is none.
// Callbacks arrive concurrently from the link's goroutines (mailbox-full
// EvLose, EvSendLost on a dead connection) and whichever goroutine runs
// an atomic section (everything else: the node's loop, a Group.Do or
// Group.Submit caller, and on the in-memory link a sender delivering for an idle
// receiver, a section's releaser draining what it was owed, or the
// timer's own goroutine), so the observer must be goroutine-safe.
func WithObserver(ob core.Observer) Option {
	return func(o *options) { o.observers = append(o.observers, ob) }
}

// WithTopology declares the communication graph. Sends to non-neighbours
// are dropped (and counted) at the sender, their traffic is rejected at
// the receiver, and the installed fault plan is validated against the
// edge set; on a node of the group's own (Host, NewCluster) a
// non-neighbour's address is also never wired (SetPeer), which on TCP
// shapes the connection mesh. The default (nil) is the complete graph.
func WithTopology(t *core.Topology) Option {
	return func(o *options) { o.topology = t }
}

// WithFaults installs a fault-injection plan (see core.FaultPlan) on a
// group, interposed at the mailbox boundary: every decoded
// message from a known peer — individually, whatever frame carried it —
// passes the group's injector before it reaches a mailbox, which may lose
// (drop or corrupt), duplicate, reorder, or delay it, honor partition
// windows, and silence the group inside crash windows (no internal
// actions, no mailbox drains, arrivals consumed). The injector is seeded
// rng.Mix(plan.Seed, Transport.FaultSalt, self, group id); schedule
// windows are measured in plan.Unit ticks of wall time from the attach.
// The link's own losses compose underneath the plan.
func WithFaults(plan *core.FaultPlan) Option {
	return func(o *options) { o.faults = plan }
}

// Transport names one socket layer to the engine.
type Transport struct {
	// FaultSalt namespaces the layer's injector seeds within the plan's
	// rng.Mix hierarchy (sim and each of the three links use their own).
	FaultSalt uint64
	// Bind opens one node's sockets.
	Bind func(LinkConfig) (Link, error)
}

// LinkConfig is what a Transport's Bind gets to build one node's link.
type LinkConfig struct {
	Self   core.ProcID
	Listen string // local address; port 0 lets the kernel pick
	Peers  int    // process count, self included
	// Instances is the size of the stack the node is bound for (zero on
	// a mux node), for sizing receive buffers.
	Instances int
	Capacity  int
	// Topology is the graph of the group the node is bound for (nil:
	// complete, or a mux node whose groups restrict traffic per message).
	Topology *core.Topology
	// Arrive is the inbound callback: one decoded frame from a known
	// peer. links and msgs are only read during the call. Safe to call
	// from several goroutines.
	Arrive func(sender core.ProcID, gid uint64, links []wire.LinkHeader, msgs []core.Message)
	// IO is where the link counts its socket traffic.
	IO *IOCounters

	// node is the receiving node, for the in-memory link, which hands it
	// frames without Arrive's wake-up and then settles it (memory.go).
	node *Node
}

// IOCounters counts what a link's sockets moved: frames (datagrams on
// UDP, length-prefixed frames on TCP), the system calls that moved
// them, and connection re-establishments.
type IOCounters struct {
	SendFrames, RecvFrames     atomic.Int64
	SendSyscalls, RecvSyscalls atomic.Int64
	Redials                    atomic.Int64
}

// Link is the layer under one node that moves frames: it frames nothing
// and stamps nothing itself.
type Link interface {
	// Addr returns the bound local address.
	Addr() string
	// Wire sets the address of one peer, before Start.
	Wire(peer core.ProcID, addr string) error
	// Start launches the link's goroutines; frames go to Arrive.
	Start()
	// Stop ends them and closes the sockets, started or not.
	Stop()
	// Write takes every frame one atomic section closed, in order, under
	// the node's action mutex. The link reports each frame's fate through
	// its Tally, now or later and from any goroutine, and reads Links and
	// Msgs only during the call.
	Write(frames []Frame)
}

// Group is one protocol stack hosted on a node: an independent cluster
// member with its own routing, observers, topology, fault plane, and
// message counters, multiplexed with its siblings over the node's link
// by the frame's group id.
type Group struct {
	n         *Node
	id        uint64
	stack     core.Stack
	topo      *core.Topology
	observers core.MultiObserver      // every observer: the protocol events
	traffic   core.MultiObserver      // those that are no core.ProtocolObserver: the traffic events too
	paths     [core.NumPaths]env      // per send path
	envs      [core.NumPaths]core.Env // pointers into paths
	waiters   core.Waiters            // pending requests; under n.mu
	refused   bool                    // a full link lost an eagerly stepped message since the last tick or reopening; under n.mu
	dirty     bool                    // got mail in the drain under way; under n.mu
	fault     *core.FaultPlan
	faultUnit time.Duration
	epoch     time.Time // fault-schedule tick zero; set before the group is visible to the sections

	inj *core.Injector // the fault plane, nil without a plan; under n.mbMu

	peers []peerLinks // indexed by peer

	sends        atomic.Int64
	recvs        atomic.Int64
	retransmits  atomic.Int64
	sendDrops    atomic.Int64
	mailboxDrops atomic.Int64
	echoFrames   atomic.Int64
	probeFrames  atomic.Int64
}

// peerLinks is what a group keeps per peer: the message counters, the
// channels, one per instance in stack order, all built at the attach
// (none toward a non-neighbour), and the frame open toward the peer.
type peerLinks struct {
	sent, recvd, dropped atomic.Int64
	chans                []Chan // fixed at the attach; each record's window and mailbox under n.mbMu
	open                 int    // 1 + the open frame's index in n.out, 0 if none; under n.mu
}

// settle ends an atomic section of the group: the stack steps on path
// (PathEager after mail, PathTick from the timer), the pending requests
// complete while their conditions hold and, as a condition may Invoke,
// the stack steps again if any was pending. Eager stepping stands down
// from a refusal (refused) to the next tick, or to the acknowledgment
// that reopens the window: a full channel loses what it is sent, and
// stepping into it only adds losses. Callers hold n.mu.
func (g *Group) settle(path core.SendPath) {
	g.refused = g.refused && path != core.PathTick
	if !g.refused {
		g.stack.Step(g.envs[path])
	}
	if g.waiters.Len() == 0 {
		return
	}
	g.waiters.Complete(g.envs[core.PathAction])
	if !g.refused {
		g.stack.Step(g.envs[core.PathEager])
	}
}

// Node returns the node hosting the group.
func (g *Group) Node() *Node { return g.n }

// now returns the group's fault-schedule tick: wall time since its epoch
// in plan.Unit ticks. Only meaningful when a fault plan is installed.
func (g *Group) now() int64 {
	return int64(time.Since(g.epoch) / g.faultUnit)
}

// down reports whether the group is inside a crash window for self.
func (g *Group) down() bool {
	return g.fault != nil && g.fault.Down(g.n.self, g.now())
}

// Stats returns the group's message counters — the totals and, per link,
// Links[] — and window gauges beside the node's socket-wide frame,
// syscall and redial counters, which every group the node hosts shares.
func (g *Group) Stats() core.TransportStats {
	n := g.n
	s := core.TransportStats{
		Addr:          n.Addr(),
		Sends:         g.sends.Load(),
		Recvs:         g.recvs.Load(),
		Retransmits:   g.retransmits.Load(),
		SendDrops:     g.sendDrops.Load(),
		MailboxDrops:  g.mailboxDrops.Load(),
		Redials:       n.io.Redials.Load(),
		SendDatagrams: n.io.SendFrames.Load(),
		RecvDatagrams: n.io.RecvFrames.Load(),
		SendSyscalls:  n.io.SendSyscalls.Load(),
		RecvSyscalls:  n.io.RecvSyscalls.Load(),
		EchoFrames:    g.echoFrames.Load(),
		ProbeFrames:   g.probeFrames.Load(),
		Capacity:      n.capacity,
	}
	n.mbMu.Lock()
	for p := range g.peers {
		if core.ProcID(p) == n.self {
			continue
		}
		pl := &g.peers[p]
		ls := core.LinkStats{
			Peer:     core.ProcID(p),
			Sent:     pl.sent.Load(),
			Received: pl.recvd.Load(),
			Dropped:  pl.dropped.Load(),
		}
		for i := range pl.chans {
			pl.chans[i].end.Gauge(&ls)
		}
		s.Links = append(s.Links, ls)
	}
	n.mbMu.Unlock()
	if g.inj != nil {
		s.Faults = g.inj.Stats()
	}
	return s
}

// attach builds, validates and publishes one group: the one way a group
// enters a node (Host, NewCluster, Mux.Attach).
func (n *Node) attach(id uint64, stack core.Stack, o options, epoch time.Time) (*Group, error) {
	topo, plan := o.topology, o.faults
	if topo != nil && topo.N() != len(n.wired) {
		return nil, fmt.Errorf("engine: topology over %d processes, %d peers", topo.N(), len(n.wired))
	}
	g := &Group{
		n:         n,
		id:        id,
		stack:     stack,
		topo:      topo,
		observers: o.observers,
		fault:     plan,
		epoch:     epoch,
		peers:     make([]peerLinks, len(n.wired)),
	}
	for _, ob := range o.observers {
		if _, protocolOnly := ob.(core.ProtocolObserver); !protocolOnly {
			g.traffic = append(g.traffic, ob)
		}
	}
	for path := range g.envs {
		g.paths[path] = env{n: n, g: g, path: core.SendPath(path)}
		g.envs[path] = &g.paths[path]
	}
	// Every record is built here, and nowhere else, wired yet or not. A
	// random first sequence keeps a restarted node's numbering clear of
	// acknowledgments addressed to its previous life.
	for p := range g.peers {
		if peer := core.ProcID(p); peer != n.self && (topo == nil || topo.HasEdge(n.self, peer)) {
			g.peers[p].chans = make([]Chan, len(stack))
			for i, mach := range stack {
				g.peers[p].chans[i] = Chan{g: g, mach: mach, Peer: peer, Instance: mach.Instance(),
					end: window.End{Link: window.NewLink(n.capacity, 1+uint64(rand.Uint32()>>1))}}
			}
		}
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if err := plan.ValidateTopology(topo); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		g.faultUnit = plan.TickUnit()
		g.inj = core.NewInjector(plan, rng.New(rng.Mix(plan.Seed, n.salt, uint64(n.self), id)))
	}
	if err := n.setGroup(id, g); err != nil {
		return nil, err
	}
	g.Do(func(core.Env) {}) // a started node steps the stack at its next tick
	return g, nil
}

// groupSet is the copy-on-write view of a node's hosted groups, swapped
// atomically so the sections and the receive side read it without locks.
type groupSet struct {
	byID map[uint64]*Group
	list []*Group
}

// Chan is this node's end of one channel: the two directed links between
// one group here and at Peer that serve one protocol instance, a slot of
// its group's table fixed at the attach. It is all the engine knows about
// the channel, so a message enters, waits in and leaves it in one place.
type Chan struct {
	g        *Group
	mach     core.Machine // the stack slot that serves Instance here
	Peer     core.ProcID
	Instance string

	end window.End // the link end: its Out under n.mu, its Link under n.mbMu

	// Under n.mbMu.
	box   []core.Message // arrived, not yet taken by a drain: at most c
	heard bool           // listed in n.heard
}

// channel returns g's record for (peer, instance), a scan of the peer's
// few instances, or nil: the table is fixed at the attach, so a name the
// stack does not route, or a peer that is no neighbour, has none.
func (g *Group) channel(peer core.ProcID, instance string) *Chan {
	pl := &g.peers[peer]
	for i := range pl.chans {
		if pl.chans[i].Instance == instance {
			return &pl.chans[i]
		}
	}
	return nil
}

// Node is one process on one link, hosting one or more groups.
type Node struct {
	self     core.ProcID
	link     Link
	capacity int
	batch    int // messages per frame at most
	salt     uint64
	topo     *core.Topology // its own group's graph (Host, NewCluster): SetPeer wires only its edges
	wired    []bool         // indexed by peer: the link has an address for it
	io       IOCounters

	gmu    sync.Mutex // serializes attach/detach
	groups atomic.Pointer[groupSet]

	// mu is the action mutex: it makes stack actions (Step, Deliver, Do)
	// atomic, and serializes the framer and the link's Write. Every
	// atomic section ends with flush.
	mu    sync.Mutex
	out   []Frame        // the section's frames, in the order they opened
	due   []*Chan        // control and answer scratch: the headers owed
	dirty []*Group       // drain scratch: groups that got mail
	taken []core.Message // drain scratch: the mailbox being delivered

	// The node's clock, under mu: time since epoch, read once per section.
	epoch   time.Time
	now     time.Duration // the section's reading, if haveNow
	haveNow bool
	// The node's one timer, a time.AfterFunc under mu, is set for next:
	// wake, the earliest thing owed, as rearm or a flush last saw it.
	// Start makes the timer, set for the first tick: an unstarted node has
	// none, and a timer made and stopped in newNode measurably slowed a
	// cold cluster.
	timer      *time.Timer
	wake, next time.Duration

	// mbMu guards every channel's window and mailbox, every group's
	// injector, and the ready list. It is never held across link calls,
	// protocol actions or observers.
	mbMu  sync.Mutex
	ready []*Chan // the channels with a non-empty mailbox, each listed once
	spare []*Chan // the drained list, swapped back in by drain
	heard []*Chan // the channels a header asked to answer or repeat, each listed once

	// Who takes a drain wakeup (the package doc): owed says that receive
	// left work no drain has taken yet, and is cleared as a drain begins.
	inline  bool          // the in-memory link: a settle may drain, and the loop parks
	mail    chan struct{} // the loop's wakeups; capacity 1
	owed    atomic.Bool
	looping atomic.Bool // the node's carry loop runs; set under mu

	started  atomic.Bool
	stopOnce sync.Once
	linkOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// Host binds process self to laddr on transport t, a node of its own,
// and attaches stack to it as group 0, its fault schedule starting now.
// peers maps every process ID (including self, whose entry is ignored) to
// its address; empty entries may be wired later with SetPeer, before
// Start. It takes a node's options and a group's; WithTopology shapes
// both the node's wiring and the group's traffic. The node is not
// started.
func Host(t Transport, self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...Option) (*Group, error) {
	o := apply(nodeDefaults, opts)
	n, err := newNode(t, self, laddr, peers, len(stack), o)
	if err != nil {
		return nil, err
	}
	g, err := n.attach(0, stack, o, time.Now())
	if err != nil {
		n.Stop()
		return nil, err
	}
	return g, nil
}

// newNode binds a node hosting no group, with o's capacity, batch and
// topology, its link sized for a stack of instances.
func newNode(t Transport, self core.ProcID, laddr string, peers []string, instances int, o options) (*Node, error) {
	if self < 0 || int(self) >= len(peers) {
		return nil, fmt.Errorf("engine: self %d outside peer list of %d", self, len(peers))
	}
	if o.capacity < 1 || o.batch < 1 || o.batch > wire.MaxBatch {
		return nil, fmt.Errorf("engine: invalid capacity %d / batch %d", o.capacity, o.batch)
	}
	if o.topology != nil && o.topology.N() != len(peers) {
		return nil, fmt.Errorf("engine: topology over %d processes, %d peers", o.topology.N(), len(peers))
	}
	n := &Node{
		self:     self,
		capacity: o.capacity,
		batch:    o.batch,
		salt:     t.FaultSalt,
		topo:     o.topology,
		wired:    make([]bool, len(peers)),
		mail:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		epoch:    time.Now(),
		wake:     never,
		next:     never,
	}
	n.groups.Store(&groupSet{byID: map[uint64]*Group{}})
	link, err := t.Bind(LinkConfig{
		Self: self, Listen: laddr, Peers: len(peers), Instances: instances,
		Capacity: o.capacity, Topology: o.topology,
		Arrive: n.arrive, IO: &n.io, node: n,
	})
	if err != nil {
		return nil, err
	}
	n.link = link
	_, n.inline = link.(*memLink)
	for i, p := range peers {
		if p == "" {
			continue
		}
		if err := n.SetPeer(core.ProcID(i), p); err != nil {
			link.Stop()
			return nil, err
		}
	}
	return n, nil
}

// setGroup publishes g to the node as group id, copy-on-write, unless
// the id is taken; a nil g detaches the group: its channels, their mail
// included, go with it and inbound frames for it are dropped.
func (n *Node) setGroup(id uint64, g *Group) error {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	old := n.groups.Load()
	if g != nil && old.byID[id] != nil {
		return fmt.Errorf("engine: group %d already attached", id)
	}
	gs := &groupSet{byID: maps.Clone(old.byID)}
	delete(gs.byID, id)
	if g != nil {
		gs.byID[id] = g
	}
	gs.list = make([]*Group, 0, len(gs.byID))
	for _, og := range gs.byID {
		gs.list = append(gs.list, og)
	}
	n.groups.Store(gs)
	return nil
}

// Addr returns the bound local address (useful with port 0).
func (n *Node) Addr() string { return n.link.Addr() }

// SetPeer sets the address of peer id after construction, enabling
// two-phase setup: bind every node with port 0 first, then wire the
// learned addresses. Must be called before Start. Under the node's
// topology a non-neighbour is never wired: the node simply does not
// learn where it lives, as a host configured with its neighbour list.
func (n *Node) SetPeer(id core.ProcID, addr string) error {
	if id == n.self || (n.topo != nil && !n.topo.HasEdge(n.self, id)) {
		return nil
	}
	if err := n.link.Wire(id, addr); err != nil {
		return err
	}
	n.wired[id] = true
	return nil
}

// Start launches the link and the node's timer — and on the sockets its
// loop — once: a second call panics. Peers must not change after Start.
// The timer starts before the link, and the link under mu, so that no
// section writes to the link before its Start returns. What arrived
// meanwhile drains on the loop's first wakeup, or in memory in Start's
// release.
func (n *Node) Start() {
	if n.started.Swap(true) {
		panic("engine: Start called twice") // a second timer would double the ticks
	}
	n.mu.Lock()
	n.next = time.Since(n.epoch) + stepInterval // a first tick steps every stack
	n.timer = time.AfterFunc(stepInterval, n.fire)
	n.link.Start()
	if !n.inline {
		n.startCarry()
	}
	n.release()
}

// halt tells the node's sections to end, and completes every group's
// pending requests, and every later one, with core.ErrClosed.
func (n *Node) halt() {
	n.stopOnce.Do(func() {
		close(n.stop)
		for _, g := range n.groups.Load().list {
			g.closeWaiters()
		}
	})
}

// halted reports whether the node was told to stop.
func (n *Node) halted() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// Stop halts the node and stops its timer under mu, after which no
// section drains, ticks or starts a loop; then it waits for the node's
// loop, which stops the link on its way out, so nodes halted together
// stop their links together. Idempotent and goroutine-safe.
func (n *Node) Stop() {
	n.halt()
	n.mu.Lock()
	if n.timer != nil {
		n.timer.Stop()
	}
	n.mu.Unlock()
	n.wg.Wait()
	n.linkOnce.Do(n.link.Stop) // no loop ran, or it ended parked
}

// env implements core.Env for one group on one path; use only under n.mu.
type env struct {
	n    *Node
	g    *Group
	path core.SendPath
}

func (v *env) Self() core.ProcID { return v.n.self }
func (v *env) N() int            { return len(v.n.wired) }

func (v *env) Emit(ev core.Event) {
	ev.Proc = v.n.self
	v.g.observers.OnEvent(ev)
}

func (v *env) Send(to core.ProcID, m core.Message) {
	n, g := v.n, v.g
	if int(to) < 0 || int(to) >= len(n.wired) {
		return
	}
	if g.topo != nil && !g.topo.HasEdge(n.self, to) {
		// Not a neighbour under the topology: no channel exists, the send
		// vanishes at the sender (and is counted, unlike an unwired peer).
		g.sendDrops.Add(1)
		if len(g.traffic) > 0 {
			g.traffic.OnEvent(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: "no edge"})
		}
		return
	}
	if !n.wired[to] {
		return
	}
	lost := func(note string) {
		g.sendDrops.Add(1)
		g.peers[to].dropped.Add(1)
		if len(g.traffic) > 0 {
			g.traffic.OnEvent(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: note})
		}
		g.refused = g.refused || v.path == core.PathEager
	}
	c := g.channel(to, m.Instance)
	if c == nil {
		lost("no route") // the peer's stack, built alike, would lose it on arrival
		return
	}
	now := n.clock()
	n.mbMu.Lock()
	fate, at := c.end.Send(v.path, m, now, stepInterval)
	n.mbMu.Unlock()
	n.wake = min(n.wake, at) // flush sets the timer
	switch fate {
	case window.Held:
		return
	case window.Refused:
		n.frame(c, 0) // the link's header, probing
		lost("window")
		return
	}
	size, err := wire.RecordSize(m)
	if err != nil {
		// Unencodable: counted so the loss is observable. The message
		// never entered the link.
		n.mbMu.Lock()
		c.end.Cancel()
		n.mbMu.Unlock()
		lost(err.Error())
		return
	}
	n.pack(c, m, size)
	repeat := fate == window.Repeats // not a refused repeat, nor a refused message's first send
	if repeat {
		g.retransmits.Add(1)
	}
	// The send event fires as the message is framed, so observers see
	// protocol order; its Tally counts it once the link wrote the frame.
	if len(g.traffic) > 0 {
		ev := core.Event{Kind: core.EvSend, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m}
		if repeat {
			ev.Note = "retransmit"
		}
		g.traffic.OnEvent(ev)
	}
}

// arrive is LinkConfig.Arrive, the sockets' way in: it takes one frame
// in and settles the node.
func (n *Node) arrive(sender core.ProcID, gid uint64, links []wire.LinkHeader, msgs []core.Message) {
	if n.receive(sender, gid, links, msgs) {
		n.settle()
	}
}

// receive feeds one frame's headers to the channels' windows and pushes
// each carried message through its group's fault plane into its
// channel's mailbox, all under one hold of mbMu, which guards the
// injector too. It reports whether the frame left work for a drain:
// boxed mail, or a header that owes one (window.Link.Arrive), which the
// drain answers. Whoever called it wakes the node (arrive, settle).
func (n *Node) receive(sender core.ProcID, gid uint64, links []wire.LinkHeader, msgs []core.Message) (owed bool) {
	g := n.groups.Load().byID[gid]
	if g == nil {
		return false // no such group here (stale or stray traffic): dropped
	}
	if g.topo != nil && !g.topo.HasEdge(sender, n.self) {
		return false // not a neighbour in this group's graph: dropped
	}
	var lost []core.Message
	box := func(c *Chan, m core.Message) {
		if n.box(c, m) {
			owed = true
		} else if len(g.traffic) > 0 {
			lost = append(lost, m)
		}
	}
	n.mbMu.Lock()
	// Headers first: the acknowledgments release our own windows, and the
	// frame's messages occupy the sender's until they are consumed.
	for _, h := range links {
		c := g.channel(sender, h.Instance)
		if c == nil {
			continue // an instance not routed here: the header is ignored
		}
		_, ask := c.end.Arrive(window.Header{Seq: h.Seq, Ack: h.Ack, Probe: h.Probe}, h.Count)
		if ask && !c.heard {
			c.heard = true
			n.heard = append(n.heard, c)
		}
		owed = owed || ask
		if g.inj != nil && h.Count == 0 {
			// A header that carried no message — a probe or an echo — is
			// traffic on its link (DESIGN.md §9), so a reorder holdback that
			// keeps its sender's window shut leaves with the sender's probe.
			// A released message keeps the window slot it has held since it
			// arrived, as in flushDelayed.
			for _, m := range g.inj.Traffic(sender, n.self, h.Instance, g.now()) {
				box(c, m)
			}
		}
	}
	for _, m := range msgs {
		c := g.channel(sender, m.Instance)
		if c == nil {
			g.peers[sender].dropped.Add(1) // mail for an instance not routed here: lost on arrival
			if len(g.traffic) > 0 {
				lost = append(lost, m)
			}
			continue
		}
		if g.inj == nil {
			box(c, m)
			continue
		}
		// Per logical message, never per frame: packing is invisible to
		// the fault plane.
		held := g.inj.Held()
		out, fate := g.inj.Filter(sender, n.self, m, g.now())
		// The arrival became len(out) mailbox entries plus whatever the
		// injector now holds back on this link: a drop frees the slot, a
		// duplicate occupies one more, holdback keeps it.
		if d := len(out) + g.inj.Held() - held - 1; d != 0 {
			c.end.Occupy(d)
		}
		if fate == core.FateDrop && len(g.traffic) > 0 {
			lost = append(lost, m)
		}
		for _, dm := range out { // held back per channel: all of them c's
			box(c, dm)
		}
	}
	n.mbMu.Unlock()
	for _, m := range lost {
		g.traffic.OnEvent(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
	}
	return owed
}

// flushDelayed surfaces expired delayed messages even on quiet links.
// It wakes nobody: the tick that calls it drains next.
func (n *Node) flushDelayed() {
	for _, g := range n.groups.Load().list {
		if g.inj == nil {
			continue
		}
		n.mbMu.Lock()
		rel := g.inj.Flush(g.now())
		lost := rel[:0]
		for _, r := range rel {
			// A released message keeps the window slot it has held since
			// it arrived.
			if !n.box(g.channel(r.From, r.Msg.Instance), r.Msg) && len(g.traffic) > 0 {
				lost = append(lost, r)
			}
		}
		n.mbMu.Unlock()
		for _, r := range lost {
			g.traffic.OnEvent(core.Event{Kind: core.EvLose, Proc: n.self, Peer: r.From, Instance: r.Msg.Instance, Msg: r.Msg})
		}
	}
}

// box appends one in-transit message to its channel's bounded mailbox
// and reports whether it did, so that its caller sees a drain follow. A
// message that finds the mailbox full is dropped, lose-on-full — the
// model's link loss, not a send failure — and its caller emits the
// EvLose once mbMu is released. The mailbox has one slot per
// window slot, so only traffic that ignored the window (or a fault-plane
// duplicate) is lost here. Callers hold n.mbMu.
func (n *Node) box(c *Chan, m core.Message) bool {
	g := c.g
	if len(c.box) >= n.capacity {
		c.end.Occupy(-1)
		g.mailboxDrops.Add(1)
		g.peers[c.Peer].dropped.Add(1)
		return false
	}
	if len(c.box) == 0 {
		n.ready = append(n.ready, c)
	}
	c.box = append(c.box, m)
	g.recvs.Add(1)
	g.peers[c.Peer].recvd.Add(1)
	return true
}

// wakeLoop wakes the node's loop.
func (n *Node) wakeLoop() {
	select {
	case n.mail <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// clock returns the node's time since its epoch, read at the first call
// in an atomic section and kept until the section's flush. Callers hold
// n.mu.
func (n *Node) clock() time.Duration {
	if !n.haveNow {
		n.now, n.haveNow = time.Since(n.epoch), true
	}
	return n.now
}

// tick is the step tick, the timer's one section: delayed fault-plan
// messages that came due surface and the mail drains, including mail
// that waited out a crash window; then every group outside a crash
// window steps on the tick path — repeating on the links that came due —
// and runs its windows' timer edge. A halted node ticks no more.
func (n *Node) tick() {
	n.mu.Lock()
	n.ticked()
	n.release()
}

// fire is the timer's callback: while the node's loop runs — always, on
// the sockets — the tick is the loop's, between its drains; otherwise it
// runs here. A fire no loop takes found the node parked, owing nothing.
func (n *Node) fire() {
	if n.looping.Load() {
		n.wakeLoop()
		return
	}
	n.tick()
}

// ticked runs the step tick's section. Callers hold n.mu.
func (n *Node) ticked() {
	if n.halted() {
		return
	}
	n.flushDelayed()
	n.drain()
	now := n.clock()
	for _, g := range n.groups.Load().list {
		if g.down() {
			continue // crash window: no internal actions until restart
		}
		g.settle(core.PathTick)
		n.control(g)
	}
	n.flush()
	n.rearm(now) // the control frames just stamped owe nothing more
}

// rearm ends the step tick, after its flush: it disarms every link whose
// deadline passed without a repeat and sets the timer for the earliest
// thing owed — the earliest deadline left, or the next tick while a
// window owes control, a fault plan runs its schedule, or a request waits
// on a condition that may read another node's state — or parks it; an
// in-memory node's loop then ends. Callers hold n.mu.
func (n *Node) rearm(now time.Duration) {
	n.wake = never
	poll := false
	n.mbMu.Lock()
	for _, g := range n.groups.Load().list {
		poll = poll || g.fault != nil || g.waiters.Len() > 0
		for p := range g.peers {
			for i := range g.peers[p].chans {
				c := &g.peers[p].chans[i]
				poll = poll || n.wired[p] && c.end.Owes()
				if at, armed := c.end.Rearm(now); armed {
					n.wake = min(n.wake, at)
				}
			}
		}
	}
	n.mbMu.Unlock()
	if poll {
		n.wake = min(n.wake, now+stepInterval)
	}
	switch n.next = n.wake; {
	case n.next != never && n.timer != nil:
		n.timer.Reset(n.next - now)
	case n.next == never && n.inline && n.looping.Load():
		n.wakeLoop() // the node owes nothing: its carry loop ends
	}
}

// owe sets the timer for a tick one step interval from now at the
// latest: the section made work only a tick does. Callers hold n.mu and
// flush.
func (n *Node) owe() { n.wake = min(n.wake, n.clock()+stepInterval) }

// control runs the timer edge of every channel of g (window.Link.Tick),
// after the group's own Step so that anything Step sent carries the
// acknowledgments: an owed echo, or a probe no drain answered, puts the
// link's header in the peer's frame — an echo-only frame if Step sent
// the peer nothing. Callers hold n.mu and flush.
func (n *Node) control(g *Group) {
	n.mbMu.Lock()
	for p := range g.peers {
		for i := range g.peers[p].chans {
			if c := &g.peers[p].chans[i]; c.end.Tick() && n.wired[p] {
				n.due = append(n.due, c)
			}
		}
	}
	n.mbMu.Unlock()
	n.pay()
}

// answer ends a drain's section, after its deliveries settled, with what
// the headers that arrived since the last drain asked for
// (window.End.Answer): the link's header, in a frame to the peer — an
// echo-only one if the section sends it nothing else — and a repeat, from
// a tick the timer runs at once. Neither waits for a step tick, so a shut
// window costs one turnaround. Callers hold n.mu and flush.
func (n *Node) answer() {
	gs := n.groups.Load()
	n.mbMu.Lock()
	for i, c := range n.heard {
		g := c.g
		header, repeat := c.end.Answer(n.clock(), gs.byID[g.id] == g && !g.down() && n.wired[c.Peer])
		if header {
			n.due = append(n.due, c)
		}
		if repeat {
			n.wake = min(n.wake, n.clock())
		}
		c.heard, n.heard[i] = false, nil
	}
	n.heard = n.heard[:0]
	n.mbMu.Unlock()
	n.pay()
}

// pay puts the headers n.due lists into the section's frames. Callers
// hold n.mu and flush.
func (n *Node) pay() {
	for i, c := range n.due {
		n.frame(c, 0)
		n.due[i] = nil
	}
	n.due = n.due[:0]
}

// releaseBudget bounds the drains one release runs on its caller's
// goroutine. A protocol that never quiesces (the mutual exclusion's token
// laps forever, a flood echoes every delivery) always leaves mail owed;
// past the budget the node starts its carry loop, so a Do never returns
// into that lap and the drains run beside the senders. 8 is the least
// power of two at which a thousand serial PIF broadcasts, at n = 3 or 8,
// start no loop (4 starts two at n = 8; 1 starts three at n = 3, a loop
// lives on through a serial run, and a cold first request took half as
// long again); 64 reads the same on the flood and the mutex, and holds a
// Do's caller longer.
const releaseBudget = 8

// release ends every atomic section: it unlocks mu. Unless the node's
// loop runs — it always does on a started socket node — it then takes
// what a settle that found mu held left owed: it retakes mu with
// TryLock and drains, up to releaseBudget times, and then starts the
// node's loop for the rest. While that loop runs, the mail is the
// loop's. No wakeup is lost: settle sets owed before its TryLock, and
// release reads owed after its Unlock, so a settle whose TryLock failed
// was either seen here or failed on a later holder, whose own release
// sees it. Such a settle woke the loop if it saw one run; if it saw
// none and release now does, that loop started after the settle looked,
// with a wakeup whose drain takes all that was owed. A release that
// finds mu taken again leaves the mail to that holder. An unstarted
// node drains only when a test's pump says, and Start's release takes
// what it was owed; a halted node drains nothing. Callers hold n.mu.
func (n *Node) release() {
	for budget := releaseBudget; ; budget-- {
		n.mu.Unlock()
		if !n.owed.Load() || !n.started.Load() || n.halted() {
			return
		}
		if n.looping.Load() {
			return
		}
		if !n.mu.TryLock() {
			return
		}
		if budget == 0 {
			n.startCarry()
			n.mu.Unlock()
			return
		}
		n.drainOwed()
	}
}

// startCarry starts the node's loop, with a wakeup for the mail owed
// now, unless the node halted: Stop takes mu after it halts, so a loop
// started here is counted before Stop waits. Callers hold n.mu.
func (n *Node) startCarry() {
	if n.halted() {
		return
	}
	n.looping.Store(true)
	n.wg.Add(1)
	n.wakeLoop()
	go n.carry()
}

// carry is the node's activation loop: it drains when a settle wakes it
// and ticks when a wakeup finds the timer's time come (fire). On the
// sockets it runs from Start until the node halts, then stops the link.
// On the in-memory link a release past its budget starts it, and it
// also ends when a wakeup finds the timer parked (rearm sends one):
// looping is cleared under mu, and its last release drains what came.
func (n *Node) carry() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			n.linkOnce.Do(n.link.Stop)
			return
		case <-n.mail:
		}
		n.mu.Lock()
		if n.inline && n.next == never {
			n.looping.Store(false)
			n.release()
			return
		}
		if time.Since(n.epoch) >= n.next {
			n.ticked()
		} else {
			n.drainOwed()
		}
		n.release()
	}
}

// drainOwed runs the drain section if one is owed and the node has not
// halted since release looked. Callers hold n.mu.
func (n *Node) drainOwed() {
	if n.owed.Load() && !n.halted() {
		n.drain()
	}
}

// settle owes n a drain of what a frame just left (arrive, or an
// in-memory Write). On the in-memory link a started n whose mu is free
// drains here, on the sender's goroutine. Otherwise n's loop takes it if
// one runs — always, on the sockets, whose reader only boxes and wakes —
// else the section holding mu (release), or Start. TryLock never waits,
// so a sender holding its own mu cannot deadlock here, and a mutex this
// goroutine holds fails it: a node's mu is held at most once on a stack,
// and a reply to a node further up is drained by that node's release
// once its section's frames are out.
func (n *Node) settle() {
	n.owed.Store(true)
	switch {
	case n.inline && n.started.Load() && n.mu.TryLock():
		n.drainOwed()
		n.release()
	case n.looping.Load():
		n.wakeLoop()
	}
}

// drain is the section that delivers mail, wherever it runs (tick,
// settle, release, carry): it clears owed, since everything boxed before
// now is taken, and swaps the ready list out (one swap under the mailbox lock,
// batching the handoff), takes each listed channel's mailbox and
// delivers it; the groups that got mail then settle. A group inside a
// crash window is skipped: its mail stays in transit, untouched where it
// is, and its channels go back on the list for the step tick to retry. A
// detached group's channels drop off the list, and its mail with them.
// An acknowledgment that reopened a window ends its group's eager
// stand-down (Group.refused) before anything settles, so this
// drain's Step may say what the refusal held back. Every drain sets the
// timer: consumed mail owes an acknowledgment. Callers hold n.mu.
func (n *Node) drain() {
	n.owed.Store(false)
	n.mbMu.Lock()
	batch := n.ready
	n.ready, n.spare = n.spare, nil
	for _, c := range n.heard {
		if c.end.Reopened() {
			c.g.refused = false
		}
	}
	n.mbMu.Unlock()

	n.owe()
	held := n.deliver(batch)
	n.flush()

	n.mbMu.Lock()
	n.ready = append(n.ready, held...)
	clear(batch)
	n.spare = batch[:0]
	n.mbMu.Unlock()
}

// deliver is drain's atomic section up to its flush, a call of its own
// so that its frame is off the stack while the section's frames leave
// (the in-memory link's Write runs the peers' receive, and their drains,
// on this goroutine); it ends with answer. It returns the channels held
// through a crash window.
// Callers hold n.mu.
func (n *Node) deliver(batch []*Chan) (held []*Chan) {
	gs := n.groups.Load()
	held = batch[:0]
	for _, c := range batch {
		g := c.g
		if gs.byID[g.id] != g {
			continue // group detached: its in-transit mail evaporates
		}
		if g.down() {
			held = append(held, c) // crash window: still in transit
			continue
		}
		n.mbMu.Lock()
		n.taken, c.box = c.box, n.taken[:0] // the channel gets the last drained mailbox's room
		n.mbMu.Unlock()
		if !g.dirty {
			g.dirty = true
			n.dirty = append(n.dirty, g)
		}
		ev := g.envs[core.PathAction]
		for _, m := range n.taken {
			// The message leaves the channel as it is handed to Deliver,
			// so a reply sent from inside Deliver already acknowledges it.
			n.mbMu.Lock()
			c.end.Occupy(-1)
			n.mbMu.Unlock()
			if len(g.traffic) > 0 {
				g.traffic.OnEvent(core.Event{Kind: core.EvDeliver, Proc: n.self, Peer: c.Peer, Instance: c.Instance, Msg: m})
			}
			c.mach.Deliver(ev, c.Peer, m)
		}
	}
	for i, g := range n.dirty {
		g.dirty, n.dirty[i] = false, nil
		g.settle(core.PathEager)
	}
	n.dirty = n.dirty[:0]
	n.answer()
	return held
}

// Do runs f under the node's action mutex with the group's environment;
// the frames of any sends f made leave as it returns, and whatever f
// enabled steps at the next tick.
func (g *Group) Do(f func(env core.Env)) {
	n := g.n
	n.mu.Lock()
	defer n.release()
	f(g.envs[core.PathAction])
	n.owe()
	n.flush()
}
