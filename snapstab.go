// Package snapstab is a Go implementation of the snap-stabilizing
// message-passing protocols of Delaët, Devismes, Nesterenko & Tixeuil,
// "Snap-Stabilization in Message-Passing Systems" (PODC 2008 / INRIA
// RR-6446): Propagation of Information with Feedback (PIF), IDs-Learning,
// and mutual exclusion over fully-connected networks with bounded-capacity
// lossy FIFO channels.
//
// A snap-stabilizing protocol satisfies its specification for every
// request, starting from an ARBITRARY initial configuration — corrupted
// process memories and corrupted channel contents alike. There is no
// convergence period during which requests may be served incorrectly
// (that weaker guarantee is self-stabilization).
//
// This package is the high-level façade: it assembles clusters on a
// chosen execution substrate, optionally corrupts them, and exposes
// request APIs in two forms. The synchronous calls (Broadcast, Learn,
// Acquire, Reset, Collect) submit one request and block to its decision.
// Their *Async twins return a *Request handle immediately and are safe to
// issue concurrently from many initiator processes — the natural shape on
// the concurrent substrates:
//
//	cluster := snapstab.NewPIFCluster(5, snapstab.WithSubstrate(snapstab.Runtime()))
//	defer cluster.Close()
//	cluster.CorruptEverything(42) // adversarial initial configuration
//	req := cluster.BroadcastAsync(0, "hello", 7)
//	if err := req.Wait(ctx); err == nil {
//		_ = req.Feedbacks() // every process's acknowledgment of THIS broadcast
//	}
//
// The default substrate is the deterministic simulator (Sim()), under
// which the synchronous calls behave exactly as in earlier revisions. The
// underlying machines, substrates, checkers, model checker, and adversary
// constructions live in the internal packages and are exercised by the
// tools under cmd/ (snapsim, snapcheck, snapbench, snapchaos, and the
// snapd/snapctl deployment pair). To watch one family answer its first
// request after corruption over real sockets, run
// `snapchaos -scenario corrupted-start -protocol pif -substrate udp`
// (or tcp), or read examples/udp.
package snapstab

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/mutex"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/spec"
)

// Payload is an application datum carried by broadcasts and feedback.
type Payload struct {
	// Tag names the datum.
	Tag string
	// Num is a numeric argument.
	Num int64
}

func (p Payload) internal() core.Payload { return core.Payload{Tag: p.Tag, Num: p.Num} }

// Options configure a cluster.
type options struct {
	lossRate  float64
	seed      uint64
	capacity  int
	maxSteps  int
	csLength  int
	onReceive func(proc int, from int, b Payload) Payload
	// onReceiveTyped holds a WithReceiverT handler. Option functions are
	// not generic, so the handler crosses the options as `any` and the
	// generic constructor asserts it back to func(proc, from int, b T) T.
	onReceiveTyped any
	substrate      Substrate
	faults         *core.FaultPlan
	// topology is the communication graph (nil = the paper's complete
	// network; an explicit complete graph behaves byte-identically).
	topology *core.Topology
	// eventHooks are WithEventHook subscribers, wrapped into substrate
	// observers at cluster construction.
	eventHooks []func(ObservedEvent)
}

// ObservedEvent is one protocol event surfaced to WithEventHook
// subscribers: the public projection of the internal event stream that
// spec checkers and traces consume.
type ObservedEvent struct {
	// Kind names the event ("send", "deliver", "lose", "start", "decide",
	// "enter-cs", "fwd-deliver", ...).
	Kind string
	// Proc is the process at which the event occurred.
	Proc int
	// Peer is the other endpoint when the event involves a message, -1
	// otherwise.
	Peer int
	// Instance is the protocol instance involved, when meaningful.
	Instance string
}

// WithEventHook subscribes fn to the cluster's protocol event stream —
// the raw material for monitoring (cmd/snapd feeds its Prometheus
// protocol-phase counters from it). fn runs inside the execution engine,
// concurrently on the concurrent substrates: it must be fast and
// goroutine-safe, and must not call back into the cluster. A hook sees
// every event, the traffic kinds (send, send-lost, deliver, lose)
// included. On Sim the cluster's own spec checker reads only protocol
// events, so the simulator builds traffic events only while a hook is
// installed: a hook brings them back, at their cost per step.
func WithEventHook(fn func(ObservedEvent)) Option {
	return func(o *options) { o.eventHooks = append(o.eventHooks, fn) }
}

// Option configures a cluster.
type Option func(*options)

// WithLossRate makes links drop in-transit messages with probability p
// (0 <= p < 1). Applies to the Sim and Runtime substrates; UDP loses
// messages naturally. On Runtime it is the fault plane's drop rate (see
// Runtime): the losses read in FaultStats().Drops, and together with
// WithFaults it panics — state the loss in the plan.
func WithLossRate(p float64) Option { return func(o *options) { o.lossRate = p } }

// WithSeed seeds the deterministic scheduler (default 1). Two Sim
// clusters built with identical options replay identical executions; on
// the concurrent substrates only corruption derives from the seed.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithCapacity sets the known per-channel capacity bound c, 1 <= c <=
// 126. Every substrate enforces it — a directed link never holds more
// than c unconsumed messages, and a send into a full link is lost at
// the sender — and the protocols size their handshake flag domain to
// {0..2c+2} from it, so one request costs 2c+2 round trips per peer.
// The default is the paper's c = 1 on Sim and Runtime and 2 on the
// socket substrates (UDP, TCP, TCPHost), where more than one message
// per link is routinely in flight. On a mux the bound belongs to the
// shared sockets: pass it to UDPMux/TCPMux. An out-of-range bound
// panics at cluster construction.
func WithCapacity(c int) Option { return func(o *options) { o.capacity = c } }

// WithStepBudget bounds each request's simulation steps on the Sim
// substrate (default 50M). The concurrent substrates have no step
// notion; bound their requests with Request.Wait contexts.
func WithStepBudget(steps int) Option { return func(o *options) { o.maxSteps = steps } }

// WithCSLength sets how many activations the critical section occupies in
// mutual exclusion clusters (default 2).
func WithCSLength(k int) Option { return func(o *options) { o.csLength = k } }

// WithReceiver installs the application broadcast handler: it runs at
// process proc when a broadcast from process from is accepted and returns
// the feedback value. The default echoes an acknowledgment derived from
// the broadcast and the receiver.
func WithReceiver(f func(proc, from int, b Payload) Payload) Option {
	return func(o *options) { o.onReceive = f }
}

func buildOptions(opts []Option) options {
	o := options{seed: 1, maxSteps: 50_000_000, csLength: 2, substrate: Sim()}
	for _, opt := range opts {
		opt(&o)
	}
	o.resolveCapacity()
	return o
}

// ErrBudget is returned when a request did not complete within the step
// budget — with correct use that indicates an undersized budget, since
// the protocols terminate from every configuration. Every façade failure
// path wraps it, so errors.Is(err, ErrBudget) works on any request's
// terminal error.
var ErrBudget = errors.New("snapstab: step budget exhausted")

// ErrInvalidProcess is returned (wrapped) by every request submitted at
// a process index outside [0, N).
var ErrInvalidProcess = errors.New("snapstab: invalid process")

// ---------------------------------------------------------------------
// PIF
// ---------------------------------------------------------------------

// PIFCluster is a fully-connected system running Protocol PIF on the
// selected substrate, carrying the structured legacy Payload (Tag, Num).
// It is a thin wrapper over the same payload-level machinery that backs
// TypedPIFCluster: the legacy "codec" maps Payload onto the message's
// structured fields directly (no opaque body), which keeps legacy
// executions — corruption streams included — byte-identical to earlier
// revisions. New applications carrying real data should use
// NewTypedPIFCluster with a Codec.
type PIFCluster struct {
	*pifCore
}

// legacyAck is the default receiver's feedback derivation: an
// acknowledgment tied to both the broadcast and the acknowledging
// process, so value-exact spec checking can predict it.
func legacyAck(q core.ProcID, b core.Payload) core.Payload {
	return core.Payload{Tag: "ack", Num: b.Num*1000 + int64(q)}
}

// NewPIFCluster builds an n-process PIF deployment (n >= 2).
func NewPIFCluster(n int, opts ...Option) *PIFCluster {
	o := buildOptions(opts)
	if o.onReceiveTyped != nil {
		panic("snapstab: WithReceiverT requires NewTypedPIFCluster")
	}
	cfg := pifConfig{
		recv: func(proc, from int, b core.Payload) core.Payload {
			return legacyAck(core.ProcID(proc), b)
		},
		expect: legacyAck,
	}
	if o.onReceive != nil {
		cfg.recv = func(proc, from int, b core.Payload) core.Payload {
			return o.onReceive(proc, from, Payload{Tag: b.Tag, Num: b.Num}).internal()
		}
		// A custom receiver makes the expected feedback unknowable here;
		// SpecReport.ValueChecked reports the weaker verdict explicitly.
		cfg.expect = nil
	}
	return &PIFCluster{pifCore: newPIFCore(n, cfg, o)}
}

// SpecReport is one armed computation's verdict under Specification 1
// (see internal/spec): whether it started, whether it decided, and every
// violation of the Correctness and Decision clauses observed at the
// decision.
type SpecReport struct {
	Started, Decided bool
	// ValueChecked reports whether the Decision clause was compared
	// value-for-value. It is false when a custom receiver (WithReceiver /
	// WithReceiverT) made the expected feedback values unknowable — a
	// clean verdict with ValueChecked == false confirmed the handshake
	// discipline but never compared the decided values.
	ValueChecked bool
	Violations   []string
}

// ArmSpec arms the cluster's Specification 1 checker for the next
// broadcast of (tag, num) initiated at process p. Call it immediately
// before BroadcastAsync(p, tag, num); after the request completes,
// SpecReport returns the verdict. Spec checking runs on the deterministic
// substrate only (the checker judges a single computation at a time and
// is driven by the simulator's event stream); on the concurrent
// substrates it returns an error and the cluster is unaffected.
func (c *PIFCluster) ArmSpec(p int, tag string, num int64) error {
	return c.armSpec(p, core.Payload{Tag: tag, Num: num})
}

// SpecReport returns the armed computation's verdict so far. Zero value
// on the concurrent substrates.
func (c *PIFCluster) SpecReport() SpecReport { return c.specReport() }

// CorruptEverything drives the cluster into an arbitrary initial
// configuration: every protocol variable randomized and — on the
// deterministic substrate — every channel filled with garbage (the
// concurrent substrates start with empty channels, which the model
// permits: their arbitrary state is the machines'). Reproducible from
// the seed.
func (c *PIFCluster) CorruptEverything(seed uint64) { c.corruptEverything(seed) }

// Feedback is one process's acknowledgment.
type Feedback struct {
	// From is the acknowledging process.
	From int
	// Value is the application feedback payload.
	Value Payload
}

// BroadcastRequest is the handle of an asynchronous Broadcast.
type BroadcastRequest struct {
	*Request
	raw *payloadBroadcastRequest

	once sync.Once
	fb   []Feedback
}

// Feedbacks returns the acknowledgments collected from every other
// process, valid after the request completed successfully and nil while
// it is still in flight (reading mid-flight would race the completion
// condition's write). The conversion runs once, on the first call after
// completion, mirroring the typed façade.
func (r *BroadcastRequest) Feedbacks() []Feedback {
	if !r.completed() {
		return nil
	}
	r.once.Do(func() {
		r.fb = make([]Feedback, len(r.raw.fb))
		for i, f := range r.raw.fb {
			r.fb[i] = Feedback{From: f.From, Value: Payload{Tag: f.Value.Tag, Num: f.Value.Num}}
		}
	})
	return r.fb
}

// BroadcastAsync submits a PIF computation request at process p and
// returns immediately. The request is accepted as soon as the machine's
// previous computation (if any — possibly fabricated by corruption) has
// decided; requests issued concurrently at the same process serialize,
// one request owning the process at a time. The guarantee (Theorem 2)
// holds no matter how corrupted the cluster was when the request was
// submitted.
func (c *PIFCluster) BroadcastAsync(p int, tag string, num int64) *BroadcastRequest {
	raw := c.broadcastAsync(p, core.Payload{Tag: tag, Num: num})
	return &BroadcastRequest{Request: raw.Request, raw: raw}
}

// Broadcast requests a PIF computation at process p and runs the cluster
// until the decision, returning the feedback collected from every other
// process.
func (c *PIFCluster) Broadcast(p int, tag string, num int64) ([]Feedback, error) {
	req := c.BroadcastAsync(p, tag, num)
	if err := req.Wait(context.Background()); err != nil {
		return nil, err
	}
	return req.Feedbacks(), nil
}

// ---------------------------------------------------------------------
// IDs-Learning
// ---------------------------------------------------------------------

// IDCluster is a system running Protocol IDL on the selected substrate.
type IDCluster struct {
	clusterCore
	machines []*idl.IDL
	ids      []int64
}

// NewIDCluster builds an n-process IDs-Learning deployment with the given
// distinct identifiers.
func NewIDCluster(ids []int64, opts ...Option) *IDCluster {
	o := buildOptions(opts)
	o.requireTopology("idl")
	n := len(ids)
	c := &IDCluster{ids: append([]int64(nil), ids...)}
	c.machines = make([]*idl.IDL, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		c.machines[i] = idl.New("idl", core.ProcID(i), n, ids[i], capacityBound(o))
		stacks[i] = c.machines[i].Machines()
	}
	c.init(o, stacks)
	return c
}

// CorruptEverything randomizes every variable and, on the deterministic
// substrate, every channel.
func (c *IDCluster) CorruptEverything(seed uint64) {
	c.corrupt(rng.New(seed), config.PIFSpecs("idl/pif", c.machines[0].PIF.FlagTop()), config.Options{})
}

// LearnRequest is the handle of an asynchronous Learn.
type LearnRequest struct {
	*Request
	minID int64
	table []int64
}

// MinID returns the minimum identifier learned, valid after the request
// completed successfully and zero while it is still in flight.
func (r *LearnRequest) MinID() int64 {
	if !r.completed() {
		return 0
	}
	return r.minID
}

// Table returns the learned identifier table (indexed by process; the
// initiator's own entry is its own identifier), valid after the request
// completed successfully and nil while it is still in flight.
func (r *LearnRequest) Table() []int64 {
	if !r.completed() {
		return nil
	}
	return r.table
}

// LearnAsync submits an IDs-Learning request at process p and returns
// immediately.
func (c *IDCluster) LearnAsync(p int) *LearnRequest {
	req := &LearnRequest{Request: c.newRequest()}
	var machine *idl.IDL
	if p >= 0 && p < len(c.machines) {
		machine = c.machines[p]
	}
	injected := false
	c.start(req.Request, p, "learn", func(env core.Env) bool {
		if !injected {
			injected = machine.Invoke(env)
			return false
		}
		if !machine.Done() {
			return false
		}
		req.minID = machine.MinID
		req.table = append([]int64(nil), machine.IDTab...)
		req.table[p] = machine.ID()
		return true
	}, nil)
	return req
}

// Learn runs an IDs-Learning computation at process p and returns the
// minimum identifier in the system and p's learned identifier table
// (indexed by process; entry p is p's own identifier).
func (c *IDCluster) Learn(p int) (minID int64, table []int64, err error) {
	req := c.LearnAsync(p)
	if err := req.Wait(context.Background()); err != nil {
		return 0, nil, err
	}
	return req.MinID(), req.Table(), nil
}

// ---------------------------------------------------------------------
// Mutual exclusion
// ---------------------------------------------------------------------

// MutexCluster is a system running Protocol ME on the selected substrate.
type MutexCluster struct {
	clusterCore
	machines []*mutex.ME
	chkMu    sync.Mutex // serializes checker access across process goroutines
	checker  *spec.MutexChecker
}

// NewMutexCluster builds an n-process mutual exclusion deployment with the
// given distinct identifiers (the smallest is the leader).
func NewMutexCluster(ids []int64, opts ...Option) *MutexCluster {
	o := buildOptions(opts)
	o.requireTopology("mutex")
	n := len(ids)
	c := &MutexCluster{}
	c.machines = make([]*mutex.ME, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		c.machines[i] = mutex.New("me", core.ProcID(i), n, ids[i],
			mutex.WithCSLength(o.csLength),
			mutex.WithPIFOptions(capacityBound(o)))
		stacks[i] = c.machines[i].Machines()
	}
	c.checker = spec.NewMutexChecker()
	c.init(o, stacks, lockedChecker{&c.chkMu, c.checker})
	return c
}

// CorruptEverything randomizes every variable (and every channel, on the
// deterministic substrate), possibly placing processes inside the
// critical section (the paper's footnote 1).
func (c *MutexCluster) CorruptEverything(seed uint64) {
	r := rng.New(seed)
	c.corruptMachines(r)
	for i, m := range c.machines {
		inCS := false
		c.sub.Do(core.ProcID(i), func(core.Env) { inCS = m.InCS })
		if inCS {
			c.chkMu.Lock()
			c.checker.PrimeZombie(core.ProcID(i))
			c.chkMu.Unlock()
		}
	}
	c.fillChannelGarbage(r, []config.InstanceSpec{
		{Instance: "me/idl/pif", FlagTop: c.machines[0].IDL.PIF.FlagTop()},
		{Instance: "me/pif", FlagTop: c.machines[0].PIF.FlagTop()},
	}, config.Options{})
}

// AcquireAsync submits a critical-section request at process p and
// returns immediately; body (when non-nil) runs inside the critical
// section when the request is served. Safe to issue concurrently from
// many initiators; requests at the same process serialize. The guarantee
// (Theorem 4): every request is served in finite time, exclusively among
// requesting processes.
func (c *MutexCluster) AcquireAsync(p int, body func()) *Request {
	req := c.newRequest()
	var machine *mutex.ME
	if p >= 0 && p < len(c.machines) {
		machine = c.machines[p]
	}
	injected := false
	abort := func(core.Env) {
		// An aborted request (budget, Close) may leave the machine with a
		// pending computation; that is the model's business. Its body is
		// ours: it must never run for a request the caller was told
		// failed.
		if injected {
			machine.CSBody = nil
		}
	}
	c.start(req, p, "acquire", func(env core.Env) bool {
		if !injected {
			if !machine.Invoke(env) {
				return false
			}
			injected = true
			// The machine serves one request at a time, so the body
			// installed here is unambiguously this request's: it is set
			// only after the machine accepted the request, and cleared at
			// its decision, both in p's atomic context.
			machine.CSBody = body
			return false
		}
		if machine.Requested() {
			return false
		}
		machine.CSBody = nil
		return true
	}, abort)
	return req
}

// Acquire requests the critical section at process p, runs the cluster
// until the request is served (critical section entered and exited), and
// executes body inside it.
func (c *MutexCluster) Acquire(p int, body func()) error {
	return c.AcquireAsync(p, body).Wait(context.Background())
}

// AcquireAll submits requests at every listed process concurrently and
// waits until all are served; bodies[i] (when non-nil) runs inside
// process procs[i]'s critical section. Each process may appear at most
// once: a duplicate initiator is rejected up front (the machine serves
// one request per process at a time, so a duplicate could only wait for
// the first to finish — callers wanting that should issue sequential
// AcquireAsync requests instead).
func (c *MutexCluster) AcquireAll(procs []int, bodies []func()) error {
	if bodies != nil && len(bodies) != len(procs) {
		return fmt.Errorf("snapstab: AcquireAll got %d bodies for %d processes", len(bodies), len(procs))
	}
	seen := make(map[int]bool, len(procs))
	for _, p := range procs {
		if p < 0 || p >= len(c.machines) {
			return fmt.Errorf("%w: AcquireAll at %d (cluster has %d)", ErrInvalidProcess, p, len(c.machines))
		}
		if seen[p] {
			return fmt.Errorf("snapstab: AcquireAll got duplicate initiator %d", p)
		}
		seen[p] = true
	}
	reqs := make([]*Request, len(procs))
	for i, p := range procs {
		var body func()
		if bodies != nil {
			body = bodies[i]
		}
		reqs[i] = c.AcquireAsync(p, body)
	}
	for i, req := range reqs {
		if err := req.Wait(context.Background()); err != nil {
			return fmt.Errorf("acquire-all (process %d): %w", procs[i], err)
		}
	}
	return nil
}

// Violations returns the mutual exclusion violations observed so far
// (always empty for correct use; exposed so applications can assert it).
func (c *MutexCluster) Violations() []string {
	c.chkMu.Lock()
	vs := c.checker.Violations()
	c.chkMu.Unlock()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Entries returns the number of served critical-section entries.
func (c *MutexCluster) Entries() int {
	c.chkMu.Lock()
	defer c.chkMu.Unlock()
	return c.checker.Entries()
}
