// Package sim is the deterministic execution substrate: it runs protocol
// stacks (core.Stack) over per-pair bounded or unbounded channels under a
// seeded scheduler, realizing the asynchronous message-passing model of
// the paper (§2).
//
// All nondeterminism of the model — which process takes a step, which
// message is delivered, which message is lost — is resolved by a single
// seeded PRNG, so every execution replays exactly from (topology, stacks,
// seed). The scheduler offers two disciplines:
//
//   - Step: one uniformly random enabled scheduler step (activation,
//     delivery, or loss). Random scheduling is fair with probability 1,
//     matching the paper's fairness assumptions.
//   - SyncRound: activate every process once, then deliver (or lose)
//     every channel head once. Deterministic and fair; gives a
//     well-defined "round" unit for complexity measurements.
//
// The package also exposes the raw operations (Activate, Deliver, Lose,
// Link) so adversaries — notably the Theorem 1 construction in
// internal/adversary — can drive executions by hand.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/channel"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
)

// LinkKey identifies one directed logical channel: the physical link
// (From, To) carrying one protocol instance. Composed protocol stacks
// multiplex several instances per physical link; each instance gets its
// own capacity-bounded sub-channel (see DESIGN.md §4).
type LinkKey struct {
	From, To core.ProcID
	Instance string
}

// String renders the key compactly.
func (k LinkKey) String() string {
	return fmt.Sprintf("p%d->p%d/%s", k.From, k.To, k.Instance)
}

// Stats counts what happened during a run.
type Stats struct {
	// Steps is the number of scheduler steps executed.
	Steps int
	// Activations is the number of process activations.
	Activations int
	// Sends is the number of messages pushed into channels (including
	// those immediately lost to a full channel).
	Sends int
	// SendLosses counts messages lost because the channel was full.
	SendLosses int
	// LinkLosses counts in-transit messages dropped by the lossy link.
	LinkLosses int
	// Deliveries counts messages handed to receive actions.
	Deliveries int
	// Rounds counts completed rounds: a round completes when every
	// process has been activated at least once since the previous round.
	Rounds int
	// ProbeActivations counts activations executed by Quiescent's
	// termination probe. The probe sweep is a legal execution fragment,
	// but it is observation, not scheduled work, so it is accounted here
	// instead of inflating Activations and Rounds.
	ProbeActivations int
	// Faults counts the faults injected by the installed FaultPlan
	// (WithFaults), by category. Zero when no plan is installed. Injected
	// drops are NOT double-counted into LinkLosses: LinkLosses remains
	// the WithLossRate/Lose accounting, so injected adversity stays
	// distinguishable from the fair-loss link model.
	Faults core.FaultStats
}

// Option configures a Network.
type Option func(*Network)

// WithCapacity sets the per-instance channel capacity (default 1, the
// paper's single-message regime). The protocols must be constructed with
// the same known bound.
func WithCapacity(c int) Option {
	return func(n *Network) { n.capacity = c }
}

// WithUnbounded switches every channel to unbounded capacity — the
// Theorem 1 impossibility regime.
func WithUnbounded() Option {
	return func(n *Network) { n.unbounded = true }
}

// WithLossRate sets the probability that a scheduled delivery becomes a
// loss instead. Must be in [0, 1); 1 would violate the fair-loss
// assumption.
func WithLossRate(p float64) Option {
	return func(n *Network) { n.loss = p }
}

// WithSeed seeds the scheduler PRNG (default 1).
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.seed = seed }
}

// WithObserver subscribes an event observer. Observers never influence
// the execution. Every observer receives the protocol events; the traffic
// kinds (send, send-lost, deliver, lose) go only to observers that are not
// a core.ProtocolObserver, and are not built at all when there is none.
func WithObserver(o core.Observer) Option {
	return func(n *Network) {
		n.observers = append(n.observers, o)
		if _, protocolOnly := o.(core.ProtocolObserver); !protocolOnly {
			n.traffic = append(n.traffic, o)
		}
	}
}

// WithTopology restricts the network to the edges of t: links exist only
// along edges (Link panics on a non-edge key), sends to non-neighbours
// are dropped at the sender, and the installed fault plan must address
// only real links. The default (nil) is the paper's complete graph. The
// links are lazily created per edge, so the queues and the scheduler's
// pending index stay degree-bounded on sparse graphs; the pair table
// itself costs one empty slice header per ordered pair, O(n²) at New.
// Edge checks consume no scheduler randomness: a network over an explicit
// Complete(n) executes byte-identically to one without a topology.
func WithTopology(t *core.Topology) Option {
	return func(n *Network) { n.topo = t }
}

// faultSeedSalt namespaces the simulator's injector seed within the
// plan's rng.Mix-derived seed hierarchy (the runtime and udp substrates
// use their own salts), so the same plan drives a distinct — but equally
// reproducible — decision stream on each substrate.
const faultSeedSalt = 0x51

// WithFaults installs a fault-injection plan (see core.FaultPlan). The
// plan is interposed at Step delivery: every message popped from a channel
// passes through the plan's injector, which may lose (drop or corrupt),
// duplicate, reorder, or delay it, honor partition windows, and silence
// processes inside crash windows. The injector draws from its own generator seeded
// rng.Mix(plan.Seed, salt) — never from the scheduler PRNG — so a nil or
// zero-value plan leaves every execution byte-identical to a network
// without one, and a configured plan replays exactly from its seed.
func WithFaults(plan *core.FaultPlan) Option {
	return func(n *Network) { n.fault = plan }
}

// Network is a fully-connected system of n processes and the channels
// between them.
type Network struct {
	n         int
	capacity  int
	unbounded bool
	loss      float64
	seed      uint64
	topo      *core.Topology

	fault *core.FaultPlan
	inj   *core.Injector

	r         *rng.Source
	stacks    []core.Stack
	routes    []map[string]core.Machine
	observers core.MultiObserver // every observer: protocol events
	traffic   core.MultiObserver // the observers that read traffic events

	// The link table (DESIGN.md §4). A link's id is its creation index:
	// linkOrder[id] is its key, queues[id] its channel, and recv[id] the
	// receiver's machine for the link's instance (nil when it runs none).
	// pairs[from*n+to] lists the ids of the links between one ordered
	// pair, a few instances each, so a lookup compares a few strings
	// instead of hashing a key.
	linkOrder []LinkKey
	queues    []*channel.Queue[core.Message]
	recv      []core.Machine
	pairs     [][]int

	// The non-empty-link index: pending holds the ids (indices into
	// linkOrder) of every link currently carrying messages, as a dense
	// swap-remove set; pendingPos[id] is the id's position in pending, or
	// -1. Channel transition hooks keep the set exact through every
	// mutation path (Send, Deliver, Lose, Preload), so Step never scans
	// the links (DESIGN.md §4).
	pending    []int
	pendingPos []int
	scratch    []int
	envs       []core.Env

	step         int
	stats        Stats
	activatedSet []bool
	activatedN   int
	probing      bool // inside Quiescent's sweep: divert activation counters

	// Substrate-mode state (substrate.go). Deterministic single-threaded
	// use — experiments, the model checker, the adversary — never touches
	// any of it, so the scheduler hot path stays lock-free.
	subMu       sync.Mutex     // held by the driver's run, or a Do, Sync, Submit or Close
	outside     atomic.Int32   // callers waiting for subMu other than the driver
	driving     atomic.Bool    // the driver runs; set and cleared under subMu
	requests    []core.Waiters // per process; under subMu
	busy        []core.ProcID  // the processes with a pending request, ascending; under subMu
	awaitBudget int
}

// New assembles a network from one protocol stack per process. The stacks
// slice length determines n; n must be at least 2.
func New(stacks []core.Stack, opts ...Option) *Network {
	if len(stacks) < 2 {
		panic(fmt.Sprintf("sim: need at least 2 processes, got %d", len(stacks)))
	}
	net := &Network{
		n:            len(stacks),
		capacity:     1,
		seed:         1,
		stacks:       stacks,
		pairs:        make([][]int, len(stacks)*len(stacks)),
		activatedSet: make([]bool, len(stacks)),
		requests:     make([]core.Waiters, len(stacks)),
		awaitBudget:  DefaultAwaitBudget,
	}
	for _, opt := range opts {
		opt(net)
	}
	if net.loss < 0 || net.loss >= 1 {
		panic(fmt.Sprintf("sim: loss rate %v outside [0,1)", net.loss))
	}
	if net.capacity < 1 {
		panic(fmt.Sprintf("sim: invalid capacity %d", net.capacity))
	}
	net.r = rng.New(net.seed)
	if net.topo != nil && net.topo.N() != net.n {
		panic(fmt.Sprintf("sim: topology over %d processes, %d stacks", net.topo.N(), net.n))
	}
	if net.fault != nil {
		if err := net.fault.Validate(); err != nil {
			panic("sim: " + err.Error())
		}
		if err := net.fault.ValidateTopology(net.topo); err != nil {
			panic("sim: " + err.Error())
		}
		net.inj = core.NewInjector(net.fault, rng.New(rng.Mix(net.fault.Seed, faultSeedSalt)))
	}
	net.routes = make([]map[string]core.Machine, net.n)
	for i, s := range stacks {
		net.routes[i] = s.ByInstance()
	}
	// Box one core.Env per process up front: handing machines a freshly
	// boxed env value on every activation would put one interface
	// allocation on the scheduler hot path.
	net.envs = make([]core.Env, net.n)
	for i := range net.envs {
		net.envs[i] = env{net: net, self: core.ProcID(i)}
	}
	return net
}

// N returns the number of processes.
func (net *Network) N() int { return net.n }

// Capacity returns the per-instance channel capacity bound
// (channel.Unlimited when unbounded).
func (net *Network) Capacity() int {
	if net.unbounded {
		return channel.Unlimited
	}
	return net.capacity
}

// Stats returns a copy of the run counters.
func (net *Network) Stats() Stats {
	out := net.stats
	out.Steps = net.step
	out.Faults = net.FaultStats()
	return out
}

// FaultPlan returns the installed fault plan, or nil.
func (net *Network) FaultPlan() *core.FaultPlan { return net.fault }

// Topology returns the installed communication graph, or nil for the
// default complete graph.
func (net *Network) Topology() *core.Topology { return net.topo }

// StepCount returns the number of scheduler steps executed so far.
func (net *Network) StepCount() int { return net.step }

// Stack returns process p's protocol stack.
func (net *Network) Stack(p core.ProcID) core.Stack { return net.stacks[p] }

// Rand exposes the scheduler PRNG so callers (corruption, tests) can draw
// reproducible randomness from the same stream.
func (net *Network) Rand() *rng.Source { return net.r }

// Link returns the logical channel for key k, creating it empty on first
// use. Creation order is recorded so scheduling stays deterministic.
func (net *Network) Link(k LinkKey) *channel.Queue[core.Message] {
	id := net.linkID(k)
	if id < 0 {
		id = net.newLink(k)
	}
	return net.queues[id]
}

// linkID returns the id of link k, or -1 when it was never created (every
// key Link would reject included).
func (net *Network) linkID(k LinkKey) int {
	if k.From < 0 || k.To < 0 || int(k.From) >= net.n || int(k.To) >= net.n {
		return -1
	}
	for _, id := range net.pairs[int(k.From)*net.n+int(k.To)] {
		if net.linkOrder[id].Instance == k.Instance {
			return id
		}
	}
	return -1
}

// newLink validates k and creates its empty link, returning the new id.
func (net *Network) newLink(k LinkKey) int {
	if k.From == k.To || int(k.From) >= net.n || int(k.To) >= net.n || k.From < 0 || k.To < 0 {
		panic(fmt.Sprintf("sim: invalid link %v", k))
	}
	if net.topo != nil && !net.topo.HasEdge(k.From, k.To) {
		panic(fmt.Sprintf("sim: link %v is not an edge of the topology", k))
	}
	var q *channel.Queue[core.Message]
	if net.unbounded {
		q = channel.NewUnbounded[core.Message]()
	} else {
		q = channel.NewBounded[core.Message](net.capacity)
	}
	if sender := net.routes[k.From][k.Instance]; sender != nil {
		// Store the sender's own string: its messages carry that same
		// pointer, so linkID and deliverMsg compare equal instance names
		// without reading their bytes.
		k.Instance = sender.Instance()
	}
	id := len(net.linkOrder)
	net.linkOrder = append(net.linkOrder, k)
	net.queues = append(net.queues, q)
	net.recv = append(net.recv, net.routes[k.To][k.Instance])
	pair := int(k.From)*net.n + int(k.To)
	net.pairs[pair] = append(net.pairs[pair], id)
	net.pendingPos = append(net.pendingPos, -1)
	q.SetTransition(func(nonEmpty bool) {
		if nonEmpty {
			net.pendingPos[id] = len(net.pending)
			net.pending = append(net.pending, id)
			return
		}
		pos := net.pendingPos[id]
		last := len(net.pending) - 1
		moved := net.pending[last]
		net.pending[pos] = moved
		net.pendingPos[moved] = pos
		net.pending = net.pending[:last]
		net.pendingPos[id] = -1
	})
	return id
}

// Links returns the keys of every channel created so far, in a
// deterministic order.
func (net *Network) Links() []LinkKey {
	out := make([]LinkKey, len(net.linkOrder))
	copy(out, net.linkOrder)
	return out
}

// LinksSorted returns the created link keys in canonical sorted order
// (useful for stable output independent of creation order).
func (net *Network) LinksSorted() []LinkKey {
	out := net.Links()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Instance < b.Instance
	})
	return out
}

// emit stamps a protocol event and fans it out to every observer.
func (net *Network) emit(e core.Event) {
	e.Step = net.step
	if len(net.observers) > 0 {
		net.observers.OnEvent(e)
	}
}

// emitTraffic stamps a send, send-lost, deliver or lose event and fans it
// out to the observers that read traffic. Its callers test
// len(net.traffic) before building the event at all.
func (net *Network) emitTraffic(e core.Event) {
	e.Step = net.step
	net.traffic.OnEvent(e)
}

// env adapts the network to core.Env for one process.
type env struct {
	net  *Network
	self core.ProcID
}

var _ core.Env = env{}

func (e env) Self() core.ProcID { return e.self }
func (e env) N() int            { return e.net.n }

func (e env) Send(to core.ProcID, m core.Message) {
	net := e.net
	k := LinkKey{From: e.self, To: to, Instance: m.Instance}
	id := net.linkID(k)
	if id < 0 {
		if net.topo != nil && !net.topo.HasEdge(e.self, to) {
			// No channel exists toward a non-neighbour: the send vanishes
			// at the sender, accounted like a full-channel loss. The check
			// draws no randomness, preserving the determinism contract.
			net.stats.Sends++
			net.stats.SendLosses++
			if len(net.traffic) > 0 {
				net.emitTraffic(core.Event{Kind: core.EvSendLost, Proc: e.self, Peer: to, Instance: m.Instance, Msg: m, Note: "no edge"})
			}
			return
		}
		id = net.newLink(k)
	}
	net.stats.Sends++
	if !net.heldFull(id) && net.queues[id].Send(&m) {
		if len(net.traffic) > 0 {
			net.emitTraffic(core.Event{Kind: core.EvSend, Proc: e.self, Peer: to, Instance: m.Instance, Msg: m})
		}
		return
	}
	net.stats.SendLosses++
	if len(net.traffic) > 0 {
		net.emitTraffic(core.Event{Kind: core.EvSendLost, Proc: e.self, Peer: to, Instance: m.Instance, Msg: m})
	}
}

// heldFull reports whether link id is full counting its holdback: a
// message the fault plane holds is still in transit and keeps its slot
// (DESIGN.md §9).
func (net *Network) heldFull(id int) bool {
	if net.inj == nil || net.unbounded || net.inj.Held() == 0 {
		return false
	}
	k := net.linkOrder[id]
	return net.queues[id].Len()+net.inj.HeldOn(k.From, k.To, k.Instance) >= net.capacity
}

func (e env) Emit(ev core.Event) {
	ev.Proc = e.self
	e.net.emit(ev)
}

// Env returns the environment for process p, letting external code (tests,
// the façade) invoke requests that emit events through the same stream.
func (net *Network) Env(p core.ProcID) core.Env { return net.envs[p] }

// Activate runs every enabled internal action of process p once, in text
// order. It reports whether any action fired.
func (net *Network) Activate(p core.ProcID) bool {
	if net.probing {
		net.stats.ProbeActivations++
	} else {
		net.stats.Activations++
		if !net.activatedSet[p] {
			net.activatedSet[p] = true
			net.activatedN++
			if net.activatedN == net.n {
				net.stats.Rounds++
				net.activatedN = 0
				for i := range net.activatedSet {
					net.activatedSet[i] = false
				}
			}
		}
	}
	if net.fault != nil && net.fault.Down(p, int64(net.step)) {
		// Inside a crash window: the scheduler gave p its turn and p does
		// nothing with it (rounds keep advancing for liveness metrics)
		// until the window closes, if it ever does.
		return false
	}
	fired := false
	e := net.envs[p]
	for _, m := range net.stacks[p] {
		if m.Step(e) {
			fired = true
		}
	}
	return fired
}

// Deliver pops the head message of link k and runs the destination's
// receive action — routed through the installed fault plan, when one
// exists, which may turn the delivery into a loss, a duplicate pair, or
// a holdback. It reports false when the link is empty.
func (net *Network) Deliver(k LinkKey) bool {
	id := net.linkID(k)
	if id < 0 {
		return false
	}
	return net.deliver(id)
}

// deliver is Deliver on link id. The head is popped before the receive
// action runs, so the pending index sees the link empty first, and the
// message is read in its ring slot: Machine.Deliver's argument is its one
// copy. The receiver's sends go out on its own links, never into the
// slot's.
func (net *Network) deliver(id int) bool {
	m := net.queues[id].Pop()
	if m == nil {
		return false
	}
	from, to := net.linkOrder[id].From, net.linkOrder[id].To
	if net.inj != nil {
		out, fate := net.inj.Filter(from, to, *m, int64(net.step))
		if fate == core.FateDrop && len(net.traffic) > 0 {
			// Injected loss is attributed to the receiver side like every
			// in-transit loss; the category lives in Stats.Faults.
			net.emitTraffic(core.Event{Kind: core.EvLose, Proc: to, Peer: from, Instance: m.Instance, Msg: *m})
		}
		for i := range out {
			net.deliverMsg(id, from, to, &out[i])
		}
		return true
	}
	net.deliverMsg(id, from, to, m)
	return true
}

// deliverMsg hands one in-transit message to the destination's receive
// action: the delivery accounting shared by the plain path, the fault
// plan's surviving copies, and flushed holdbacks. id is the link the
// message left, whose cached receiver serves messages of the link's own
// instance; any other message, and a flushed holdback (id -1), is routed
// by its instance.
func (net *Network) deliverMsg(id int, from, to core.ProcID, m *core.Message) {
	net.stats.Deliveries++
	if len(net.traffic) > 0 {
		net.emitTraffic(core.Event{Kind: core.EvDeliver, Proc: to, Peer: from, Instance: m.Instance, Msg: *m})
	}
	var mach core.Machine
	if id >= 0 && m.Instance == net.linkOrder[id].Instance {
		mach = net.recv[id]
	} else {
		mach = net.routes[to][m.Instance]
	}
	if mach != nil {
		mach.Deliver(net.envs[to], from, *m)
	}
	// A message addressed to an unknown instance (initial garbage) is
	// consumed with no effect, exactly like a message whose receive
	// action has a false guard.
}

// flushFaults releases every expired held-back message into its
// destination's receive action. Called once per scheduler step while a
// fault plan is installed, so a delayed message on a quiet link still
// surfaces on time.
func (net *Network) flushFaults() {
	rels := net.inj.Flush(int64(net.step))
	for i := range rels {
		net.deliverMsg(-1, rels[i].From, rels[i].To, &rels[i].Msg)
	}
}

// Lose drops the head message of link k, modeling link-level loss. It
// reports false when the link is empty.
func (net *Network) Lose(k LinkKey) bool {
	id := net.linkID(k)
	if id < 0 {
		return false
	}
	return net.lose(id)
}

// lose is Lose on link id.
func (net *Network) lose(id int) bool {
	m := net.queues[id].Drop()
	if m == nil {
		return false
	}
	net.stats.LinkLosses++
	if len(net.traffic) > 0 {
		k := net.linkOrder[id]
		net.emitTraffic(core.Event{Kind: core.EvLose, Proc: k.To, Peer: k.From, Instance: m.Instance, Msg: *m})
	}
	return true
}

// pendingSnapshot fills the reusable scratch buffer with the ids of
// non-empty links in creation order. A snapshot is needed whenever
// deliveries happen while iterating: delivering mutates the pending set.
func (net *Network) pendingSnapshot() []int {
	net.scratch = net.scratch[:0]
	for id := range net.linkOrder {
		if net.pendingPos[id] >= 0 {
			net.scratch = append(net.scratch, id)
		}
	}
	return net.scratch
}

// Step executes one random scheduler step: a uniformly chosen process
// activation or channel-head delivery (which becomes a loss with the
// configured probability). It reports whether the step changed anything
// (an action fired or a message moved).
//
// The choice over non-empty links reads the incrementally maintained
// pending index, so a step is O(1) in the number of links and performs no
// heap allocation in steady state. The index's swap-remove order differs
// from creation order, so a fixed seed may produce a different — but
// equally valid — execution than earlier revisions that scanned links.
func (net *Network) Step() bool {
	net.step++
	if net.inj != nil {
		net.flushFaults()
	}
	choice := net.r.Intn(net.n + len(net.pending))
	if choice < net.n {
		return net.Activate(core.ProcID(choice))
	}
	id := net.pending[choice-net.n]
	if net.loss > 0 && net.r.Float64() < net.loss {
		return net.lose(id)
	}
	return net.deliver(id)
}

// SyncRound activates every process once and then delivers (or loses)
// every channel head once. It reports whether anything changed.
func (net *Network) SyncRound() bool {
	net.step++
	if net.inj != nil {
		net.flushFaults()
	}
	changed := false
	for p := 0; p < net.n; p++ {
		if net.Activate(core.ProcID(p)) {
			changed = true
		}
	}
	for _, id := range net.pendingSnapshot() {
		if net.loss > 0 && net.r.Float64() < net.loss {
			net.lose(id)
		} else {
			net.deliver(id)
		}
		changed = true
	}
	return changed
}

// ErrBudget is returned by RunUntil and RunRoundsUntil when the predicate
// did not hold within the budget — either a liveness violation or an
// undersized budget. The exhausted budget's unit is explicit: RunUntil
// budgets are counted in scheduler steps, RunRoundsUntil budgets in
// synchronous rounds (an earlier revision reported rounds through the
// Steps field, mis-labelling round budgets in E-runner error messages).
type ErrBudget struct {
	// Steps is the number of random-scheduler steps executed (RunUntil);
	// 0 for round-budgeted runs.
	Steps int
	// Rounds is the number of synchronous rounds executed
	// (RunRoundsUntil); 0 for step-budgeted runs.
	Rounds int
	// Unit names the exhausted budget's unit: "steps" or "rounds".
	Unit string
}

func (e *ErrBudget) Error() string {
	n, unit := e.Steps, e.Unit
	if unit == "" {
		unit = "steps"
	}
	if unit == "rounds" {
		n = e.Rounds
	}
	return fmt.Sprintf("sim: predicate still false after %d %s", n, unit)
}

// RunUntil executes random scheduler steps until pred() holds, returning
// nil, or until maxSteps have run, returning *ErrBudget with the number of
// steps actually executed. The predicate is evaluated exactly once before
// the first step and once after every step — the bounded, predictable
// cadence matters because experiment predicates carry side effects
// (issuing the request under test).
func (net *Network) RunUntil(pred func() bool, maxSteps int) error {
	if pred() {
		return nil
	}
	executed := 0
	for ; executed < maxSteps; executed++ {
		net.Step()
		if pred() {
			return nil
		}
	}
	return &ErrBudget{Steps: executed, Unit: "steps"}
}

// RunRoundsUntil is RunUntil with the synchronous-round scheduler; the
// budget is counted in rounds.
func (net *Network) RunRoundsUntil(pred func() bool, maxRounds int) error {
	if pred() {
		return nil
	}
	executed := 0
	for ; executed < maxRounds; executed++ {
		net.SyncRound()
		if pred() {
			return nil
		}
	}
	return &ErrBudget{Rounds: executed, Unit: "rounds"}
}

// Quiescent reports whether the system has terminated: every channel is
// empty and no process has an enabled internal action. Probing executes
// one activation sweep, which is itself a legal execution fragment, but
// the sweep is accounted in Stats.ProbeActivations rather than
// Activations/Rounds: it is observation, and must not inflate the run's
// liveness metrics. The channel check is O(1) via the pending index.
func (net *Network) Quiescent() bool {
	if len(net.pending) > 0 {
		return false
	}
	if net.inj != nil && net.inj.Held() > 0 {
		// Held-back messages are still in transit inside the injector.
		return false
	}
	if net.fault != nil {
		// A process inside a crash window cannot be probed — its guards
		// are silenced, not disabled, and fire when the window closes —
		// so quiescence is unknowable until then.
		for p := 0; p < net.n; p++ {
			if net.fault.Down(core.ProcID(p), int64(net.step)) {
				return false
			}
		}
	}
	net.probing = true
	defer func() { net.probing = false }()
	for p := 0; p < net.n; p++ {
		if net.Activate(core.ProcID(p)) {
			return false
		}
	}
	return len(net.pending) == 0
}

// InTransit returns the total number of messages currently in channels.
func (net *Network) InTransit() int {
	total := 0
	for _, q := range net.queues {
		total += q.Len()
	}
	return total
}

// ConfigHash returns a canonical encoding of the global configuration:
// every process's machine states plus every channel's contents. Two equal
// encodings mean equal configurations (for snapshot-implementing
// machines). Used by tests and the divergence checks.
func (net *Network) ConfigHash() string {
	var buf []byte
	for p := 0; p < net.n; p++ {
		buf = append(buf, 0x02)
		buf = net.stacks[p].AppendState(buf)
	}
	for _, k := range net.LinksSorted() {
		buf = append(buf, 0x03)
		buf = append(buf, k.String()...)
		for _, m := range net.queues[net.linkID(k)].Contents() {
			buf = core.AppendMessage(buf, m)
		}
	}
	return string(buf)
}
