// Package runtime executes protocol stacks as real concurrent processes:
// one goroutine per process, delivering messages through a per-process
// fan-in channel fed by a dense, precomputed link table.
//
// The mapping to the paper's model is direct:
//
//   - every directed (sender, receiver, instance) link carries an atomic
//     in-flight counter bounded by the configured capacity c: a send that
//     would exceed the bound is dropped — exactly "if a process sends a
//     message in a channel that is full, then the message is lost" (§4);
//   - admitted messages travel as core.Envelope values through the
//     receiver's fan-in channel, sized so that a send never blocks; the
//     receiver drains the channel to empty on every wakeup, so links with
//     capacity > 1 never backlog;
//   - deliveries are event-driven, and each batch ends, in the same lock
//     hold, with the internal actions and the awaited conditions
//     (core.Waiters.Settle); a message equal to its link's last is a
//     retransmission and waits for the step timer (WithTick). Go's
//     scheduler gives genuine asynchrony and, in practice, weak fairness.
//
// The link table is built once at New from the stacks' instances — the
// hot path takes no engine-wide lock and performs no map writes. A
// message addressed to an instance the destination does not run is
// dropped at the send (it could never be delivered; in the model this is
// a send into a zero-capacity channel).
//
// Unlike internal/sim, executions here are not reproducible — this
// substrate exists to demonstrate that the protocols run unchanged under
// true concurrency (and, via internal/transport/udp, on real sockets).
// The deterministic simulator remains the tool for experiments and
// counter-examples. See DESIGN.md §7.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
)

// Option configures an Engine.
type Option func(*Engine)

// WithCapacity sets the per-link capacity bound (default 1).
func WithCapacity(c int) Option {
	return func(e *Engine) { e.capacity = c }
}

// WithLossRate drops each received message with the given probability,
// exercising the protocols' loss tolerance on this substrate too.
func WithLossRate(p float64) Option {
	return func(e *Engine) { e.loss = p }
}

// WithObserver subscribes an event observer. Callbacks arrive
// concurrently from every process goroutine, so the observer must be
// goroutine-safe.
func WithObserver(o core.Observer) Option {
	return func(e *Engine) { e.observers = append(e.observers, o) }
}

// WithTick sets the retransmission interval (default 50µs). Nothing new
// waits for it; the tick repeats the last message of a link that sent
// nothing since the previous tick, as PIF's A2 needs after a loss.
func WithTick(d time.Duration) Option {
	return func(e *Engine) { e.tick = d }
}

// WithTopology restricts the engine to the edges of t: each receiver's
// link table holds one row per NEIGHBOUR instead of one per process, so
// the in-flight counters and fan-in buffers are degree-bounded, and a
// send to a non-neighbour is dropped at the sender (there is no channel
// to carry it). The default (nil) is the complete graph, with the exact
// all-pairs table layout of earlier revisions.
func WithTopology(t *core.Topology) Option {
	return func(e *Engine) { e.topo = t }
}

// runtimeFaultSalt namespaces this substrate's injector seeds within the
// plan's rng.Mix hierarchy (sim and udp use their own salts).
const runtimeFaultSalt = 0x52

// WithFaults installs a fault-injection plan (see core.FaultPlan),
// interposed at the per-receiver link table: every envelope leaving a
// receiver's fan-in channel passes its process's injector, which may drop,
// duplicate, corrupt, reorder, or delay it, honor partition windows, and
// silence the process inside crash windows (no internal actions, arrivals
// consumed). Each receiver owns one injector seeded
// rng.Mix(plan.Seed, salt, receiver), so decision streams are reproducible
// per process even though the engine's interleaving is not. Schedule
// windows are measured in plan.Unit ticks of wall time from Start.
func WithFaults(plan *core.FaultPlan) Option {
	return func(e *Engine) { e.fault = plan }
}

// linkTable is the precomputed delivery state for one receiver: its
// instances in stack order and, per directed (sender, instance) link, an
// in-flight counter and the sender's core.LinkOut (under the sender's
// mutex). Senders are compacted through senderIdx —
// the identity map on the complete graph, a dense neighbour index on a
// sparse topology — so the table is degree-bounded. The slot for a link
// is senderIdx[sender]*len(instances) + instance index; the instance
// recovers from a slot with one modulo (the sender rides alongside in
// the envelope), so envelopes carry only the slot.
type linkTable struct {
	instances []string
	instIdx   map[string]int
	machines  []core.Machine
	senderIdx []int // per-process dense sender row, -1 = not a neighbour
	inflight  []atomic.Int32
	out       []core.LinkOut
}

// procCounters is one process's slice of core.TransportStats, atomic so
// TransportStats can read while the engine runs.
type procCounters struct {
	sends, recvs, retransmits, sendDrops, recvDrops atomic.Int64
}

// Engine is a running concurrent deployment.
type Engine struct {
	n         int
	capacity  int
	loss      float64
	tick      time.Duration
	topo      *core.Topology
	stacks    []core.Stack
	observers core.MultiObserver

	tables []*linkTable         // per-receiver link state, built at New
	inbox  []chan core.Envelope // per-receiver fan-in delivery channel

	fault     *core.FaultPlan
	injs      []*core.Injector // per-receiver, used only under that process's mutex
	faultUnit time.Duration
	epoch     time.Time // set by Start, before the goroutines launch

	procMu  []sync.Mutex   // one per process: atomic guarded actions
	counts  []procCounters // one per process, written under its mutex
	envs    [][core.NumPaths]core.Env
	waiters []core.Waiters // pending Awaits, under the process's mutex

	step     atomic.Int64
	started  atomic.Bool
	launched atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New assembles an engine from one stack per process.
func New(stacks []core.Stack, opts ...Option) *Engine {
	if len(stacks) < 2 {
		panic(fmt.Sprintf("runtime: need at least 2 processes, got %d", len(stacks)))
	}
	e := &Engine{
		n:        len(stacks),
		capacity: 1,
		tick:     50 * time.Microsecond,
		stacks:   stacks,
		procMu:   make([]sync.Mutex, len(stacks)),
		counts:   make([]procCounters, len(stacks)),
		envs:     make([][core.NumPaths]core.Env, len(stacks)),
		waiters:  make([]core.Waiters, len(stacks)),
		stop:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.capacity < 1 {
		panic(fmt.Sprintf("runtime: invalid capacity %d", e.capacity))
	}
	if e.loss < 0 || e.loss >= 1 {
		panic(fmt.Sprintf("runtime: loss rate %v outside [0,1)", e.loss))
	}
	if e.tick <= 0 {
		panic(fmt.Sprintf("runtime: invalid tick %v", e.tick))
	}
	if e.topo != nil && e.topo.N() != e.n {
		panic(fmt.Sprintf("runtime: topology over %d processes, %d stacks", e.topo.N(), e.n))
	}
	if e.fault != nil {
		if err := e.fault.Validate(); err != nil {
			panic("runtime: " + err.Error())
		}
		if err := e.fault.ValidateTopology(e.topo); err != nil {
			panic("runtime: " + err.Error())
		}
		e.faultUnit = e.fault.TickUnit()
		e.injs = make([]*core.Injector, e.n)
		for p := range e.injs {
			e.injs[p] = core.NewInjector(e.fault, rng.New(rng.Mix(e.fault.Seed, runtimeFaultSalt, uint64(p))))
		}
	}
	e.tables = make([]*linkTable, e.n)
	e.inbox = make([]chan core.Envelope, e.n)
	for i, s := range stacks {
		t := &linkTable{instIdx: make(map[string]int, len(s))}
		for _, mach := range s {
			id := mach.Instance()
			if _, dup := t.instIdx[id]; dup {
				panic("runtime: duplicate machine instance " + id)
			}
			t.instIdx[id] = len(t.instances)
			t.instances = append(t.instances, id)
			t.machines = append(t.machines, mach)
		}
		// Compact senders: every process on the complete graph, only the
		// neighbours under a topology. Ascending neighbour order keeps the
		// dense rows deterministic.
		t.senderIdx = make([]int, e.n)
		senders := 0
		if e.topo == nil {
			for p := range t.senderIdx {
				t.senderIdx[p] = p
			}
			senders = e.n
		} else {
			for p := range t.senderIdx {
				t.senderIdx[p] = -1
			}
			for _, q := range e.topo.Neighbors(core.ProcID(i)) {
				t.senderIdx[q] = senders
				senders++
			}
		}
		t.inflight = make([]atomic.Int32, senders*len(t.instances))
		t.out = make([]core.LinkOut, len(t.inflight))
		for path := range e.envs[i] {
			e.envs[i][path] = env{e: e, self: core.ProcID(i), path: core.SendPath(path)}
		}
		e.tables[i] = t
		// Sized to the total in-flight bound across all of this
		// receiver's links, so a send that passed the capacity check can
		// never block on the channel. An isolated process (degree 0) can
		// receive nothing; give its channel a slot anyway so the type
		// stays uniform.
		buf := senders * len(t.instances) * e.capacity
		if buf < 1 {
			buf = 1
		}
		e.inbox[i] = make(chan core.Envelope, buf)
	}
	return e
}

// Topology returns the installed communication graph, or nil for the
// default complete graph.
func (e *Engine) Topology() *core.Topology { return e.topo }

// env implements core.Env for one process on one send path. It must only
// be used while the process mutex is held (the engine guarantees that).
type env struct {
	e    *Engine
	self core.ProcID
	path core.SendPath
}

func (v env) Self() core.ProcID { return v.self }
func (v env) N() int            { return v.e.n }

func (v env) Send(to core.ProcID, m core.Message) {
	e := v.e
	t := e.tables[to]
	lost := func(note string) {
		e.counts[v.self].sendDrops.Add(1)
		e.emit(core.Event{Kind: core.EvSendLost, Proc: v.self, Peer: to, Instance: m.Instance, Msg: m, Note: note})
	}
	row := t.senderIdx[v.self]
	if row < 0 {
		// Not a neighbour under the topology: no channel exists, the send
		// vanishes at the sender.
		lost("no edge")
		return
	}
	idx, ok := t.instIdx[m.Instance]
	if !ok {
		// The destination runs no machine for this instance, so the
		// message could never be delivered: a send into a zero-capacity
		// channel, lost immediately.
		lost("")
		return
	}
	slot := row*len(t.instances) + idx
	if !t.out[slot].Pass(v.path, m, &e.counts[v.self].retransmits) {
		return
	}
	ctr := &t.inflight[slot]
	if in := ctr.Add(1); in > int32(e.capacity) {
		// Link full: the message is lost, per the model.
		ctr.Add(-1)
		lost("")
		e.waiters[v.self].Refused(v.path)
		return
	}
	e.inbox[to] <- core.Envelope{From: v.self, Link: int32(slot), Msg: m}
	e.counts[v.self].sends.Add(1)
	e.emit(core.Event{Kind: core.EvSend, Proc: v.self, Peer: to, Instance: m.Instance, Msg: m})
}

func (v env) Emit(ev core.Event) {
	ev.Proc = v.self
	v.e.emit(ev)
}

func (e *Engine) emit(ev core.Event) {
	if len(e.observers) == 0 {
		return
	}
	ev.Step = int(e.step.Add(1))
	e.observers.OnEvent(ev)
}

// Start launches the process goroutines. It may be called once; a second
// call panics. Safe to race with Stop.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		panic("runtime: Start called twice")
	}
	e.epoch = time.Now() // fault-schedule tick zero
	e.wg.Add(e.n)
	e.launched.Store(true)
	for p := 0; p < e.n; p++ {
		go e.run(core.ProcID(p))
	}
}

// run is the main loop of one process: block on the fan-in channel (a
// delivery) or the step timer (retransmission), forever; both settle.
func (e *Engine) run(p core.ProcID) {
	defer e.wg.Done()
	r := rng.New(uint64(p) + 0x9E3779B9)
	t := e.tables[p]
	in := e.inbox[p]
	// Deliver at most one full inbox per lock hold, so a continuous
	// message storm cannot starve the step timer (weak fairness).
	batch := cap(in)
	ticker := time.NewTicker(e.tick)
	defer ticker.Stop()
	stack, envs, waiters := e.stacks[p], &e.envs[p], &e.waiters[p]
	for {
		select {
		case <-e.stop:
			return
		case first := <-in:
			e.procMu[p].Lock()
			e.deliver(p, t, first, r)
		drain:
			for k := 1; k < batch; k++ {
				select {
				case next := <-in:
					e.deliver(p, t, next, r)
				default:
					break drain
				}
			}
			if !e.down(p) {
				waiters.Settle(stack, envs, core.PathEager)
			}
			e.procMu[p].Unlock()
		case <-ticker.C:
			e.procMu[p].Lock()
			if e.injs != nil {
				e.flushFaults(t, p, e.faultNow())
			}
			// Crash window: no internal actions until restart.
			if !e.down(p) {
				waiters.Settle(stack, envs, core.PathTick)
			}
			e.procMu[p].Unlock()
		}
	}
}

// deliver removes one envelope from the link (freeing its capacity slot),
// applies injected loss and the fault plan, and runs the receive action.
// Caller holds the process mutex.
func (e *Engine) deliver(p core.ProcID, t *linkTable, in core.Envelope, r *rng.Source) {
	t.inflight[in.Link].Add(-1)
	idx := int(in.Link) % len(t.instances)
	if e.loss > 0 && r.Float64() < e.loss {
		e.counts[p].recvDrops.Add(1)
		e.emit(core.Event{Kind: core.EvLose, Proc: p, Peer: in.From, Instance: t.instances[idx], Msg: in.Msg})
		return
	}
	if e.injs == nil {
		e.receive(p, t, idx, in.From, in.Msg)
		return
	}
	out, fate := e.injs[p].Filter(in.From, p, in.Msg, e.faultNow())
	if fate == core.FateDrop {
		// Injected drops are counted in Faults only — SendDrops and
		// MailboxDrops keep measuring the engine's native losses (full
		// links, WithLossRate), matching the sim/udp counter contract.
		e.emit(core.Event{Kind: core.EvLose, Proc: p, Peer: in.From, Instance: t.instances[idx], Msg: in.Msg})
	}
	// Every surviving copy — the message, duplicates, and released
	// holdbacks — shares the envelope's link, hence its machine.
	for _, m := range out {
		e.receive(p, t, idx, in.From, m)
	}
}

// receive hands one message to the receive action of machine idx.
// Caller holds the process mutex.
func (e *Engine) receive(p core.ProcID, t *linkTable, idx int, from core.ProcID, m core.Message) {
	e.counts[p].recvs.Add(1)
	e.emit(core.Event{Kind: core.EvDeliver, Proc: p, Peer: from, Instance: t.instances[idx], Msg: m})
	t.machines[idx].Deliver(e.envs[p][core.PathAction], from, m)
}

// faultNow returns the fault-schedule tick: wall time since Start in
// plan.Unit ticks.
func (e *Engine) faultNow() int64 {
	return int64(time.Since(e.epoch) / e.faultUnit)
}

// down reports whether p is inside a crash window.
func (e *Engine) down(p core.ProcID) bool {
	return e.injs != nil && e.fault.Down(p, e.faultNow())
}

// flushFaults delivers every expired held-back message of receiver p.
// Caller holds p's mutex.
func (e *Engine) flushFaults(t *linkTable, p core.ProcID, now int64) {
	for _, rel := range e.injs[p].Flush(now) {
		idx, ok := t.instIdx[rel.Msg.Instance]
		if !ok {
			continue // unreachable: the message was admitted on this table
		}
		e.receive(p, t, idx, rel.From, rel.Msg)
	}
}

// TransportStats implements core.TransportStatser: per process, the
// messages it put on its in-memory links (Sends), the sends that were
// timer retransmissions (Retransmits), the sends it lost to a
// full link, a missing edge or an instance the destination does not run
// (SendDrops), the messages handed to its receive actions (Recvs), the
// arrivals WithLossRate dropped (MailboxDrops: lost at the receiver,
// reported as EvLose), and what its injector did (Faults). There are no
// sockets, so Addr, the frame and syscall counters and Links stay zero.
// Safe to call while the engine runs.
func (e *Engine) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, e.n)
	for p := range out {
		c := &e.counts[p]
		out[p] = core.TransportStats{
			Sends:        c.sends.Load(),
			Recvs:        c.recvs.Load(),
			Retransmits:  c.retransmits.Load(),
			SendDrops:    c.sendDrops.Load(),
			MailboxDrops: c.recvDrops.Load(),
		}
		if e.injs != nil {
			out[p].Faults = e.injs[p].Stats()
		}
	}
	return out
}

// FaultStats returns the engine-wide injected-fault counters. Zero when
// no plan is installed. Part of core.Substrate.
func (e *Engine) FaultStats() core.FaultStats {
	return core.FaultTotals(e.TransportStats())
}

// Do runs f under process p's action mutex, with p's environment. Use it
// for external interactions (submitting requests, reading protocol state)
// while the engine runs.
func (e *Engine) Do(p core.ProcID, f func(env core.Env)) {
	e.procMu[p].Lock()
	defer e.procMu[p].Unlock()
	f(e.envs[p][core.PathAction])
}

// Stop terminates all process goroutines and waits for them to exit. It
// is idempotent and safe to call from multiple goroutines concurrently
// (and concurrently with Start: the goroutines observe the closed stop
// channel and exit immediately).
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	if e.launched.Load() {
		e.wg.Wait()
	}
}
