package snapstab

import (
	"errors"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// ErrClosed is returned by requests that were aborted because the
// cluster was closed.
var ErrClosed = errors.New("snapstab: cluster closed")

// Cluster is what all seven cluster families share: the part a tool
// needs to host, corrupt, count and tear down a cluster whatever
// protocol it runs (the request calls are the family's own).
type Cluster interface {
	// N returns the number of processes.
	N() int
	// Close aborts in-flight requests and releases the substrate.
	Close() error
	// CorruptEverything drives the cluster into an arbitrary initial
	// configuration, reproducible from the seed.
	CorruptEverything(seed uint64)
	// TransportStats returns one entry of transport counters per process.
	TransportStats() []TransportStats
	// FaultStats returns the injected-fault totals.
	FaultStats() FaultStats
}

// clusterCore is the substrate-facing half shared by every cluster type:
// it owns the built substrate and the request plumbing. The concrete cluster types embed it, so N, Close,
// Stats, and TransportStats are uniform across all seven.
type clusterCore struct {
	opt    options
	stacks []core.Stack
	sub    core.Substrate
	simNet *sim.Network // non-nil on the deterministic substrate

	closeOnce sync.Once
	closeErr  error
}

// init builds the substrate selected in o from the assembled stacks.
// obs are event observers to subscribe (nil entries are skipped); they
// must be goroutine-safe on the concurrent substrates.
func (c *clusterCore) init(o options, stacks []core.Stack, obs ...core.Observer) {
	c.opt = o
	c.stacks = stacks
	kept := make([]core.Observer, 0, len(obs)+len(o.eventHooks))
	for _, ob := range obs {
		if ob != nil {
			kept = append(kept, ob)
		}
	}
	for _, hook := range o.eventHooks {
		hook := hook
		kept = append(kept, core.ObserverFunc(func(e core.Event) {
			hook(ObservedEvent{Kind: e.Kind.String(), Proc: int(e.Proc), Peer: int(e.Peer), Instance: e.Instance})
		}))
	}
	sub, err := o.substrate.build(o, stacks, kept)
	if err != nil {
		panic("snapstab: substrate construction failed: " + err.Error())
	}
	c.sub = sub
	c.simNet, _ = sub.(*sim.Network)
}

// lockedChecker serializes a spec checker's callbacks: events arrive
// concurrently from every process goroutine on the concurrent substrates,
// and the checkers are not goroutine-safe. It reads what its checker
// reads, so it is a core.ProtocolObserver too: no engine sends it a
// traffic event, and its lock is taken only on protocol events.
type lockedChecker struct {
	mu      *sync.Mutex
	checker core.ProtocolObserver
}

func (l lockedChecker) OnEvent(e core.Event) {
	l.mu.Lock()
	l.checker.OnEvent(e)
	l.mu.Unlock()
}

func (lockedChecker) IgnoresTraffic() {}

// N returns the number of processes.
func (c *clusterCore) N() int { return c.sub.N() }

// Close shuts the cluster down: in-flight requests are aborted with
// ErrClosed and the substrate releases its goroutines and sockets.
// Idempotent and safe to call concurrently.
func (c *clusterCore) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.sub.Close() })
	return c.closeErr
}

// Stats returns the deterministic scheduler's counters for the whole
// cluster lifetime. On the concurrent substrates — which count different
// things — it returns the zero value; see TransportStats for the
// network substrates (UDP, TCP, and their muxes).
func (c *clusterCore) Stats() sim.Stats {
	var s sim.Stats
	if c.simNet != nil {
		c.simNet.Sync(func() { s = c.simNet.Stats() })
	}
	return s
}

// LinkStats describes one node's link with one peer on Runtime, UDP and
// TCP: core's own type, whose Peer is a core.ProcID.
type LinkStats = core.LinkStats

// TransportStats holds one node's transport counters, in the same shape
// on every substrate: core's own type, which documents each counter.
type TransportStats = core.TransportStats

// TransportStats returns one entry per process on every substrate: the
// concurrent engine's counters on Runtime, UDP and TCP, and zero-valued
// entries on Sim, which counts per network (see Stats).
func (c *clusterCore) TransportStats() []TransportStats { return c.sub.TransportStats() }

// newRequest returns an unstarted request handle. Typed wrappers are
// assembled around it BEFORE start is called, so the completion
// condition may safely write result fields through the wrapper.
func (c *clusterCore) newRequest() *Request {
	return &Request{done: make(chan struct{})}
}

// start submits the request at process p in the paper's two phases,
// both evaluated in p's atomic context: invoke runs until the machine
// accepts the request (the model forbids re-requesting before the
// previous decision), then decided runs, from that same evaluation on,
// until the computation has decided, harvesting its results in place.
// The completion, in that same context, completes r with the mapped
// terminal error; label names the operation in error messages. onAbort,
// when non-nil, runs first if a request the machine accepted failed, so
// it can undo per-request machine state (e.g. an installed
// critical-section body) before the next request at p is evaluated:
// requests at one process form a FIFO (core.Substrate), so two never
// race for the machine's decision window. For a p outside the cluster
// none of the three runs and r fails with ErrInvalidProcess. On Sim, r
// drives the scheduler once someone waits for it.
func (c *clusterCore) start(r *Request, p int, label string, invoke, decided func(env core.Env) bool, onAbort func(env core.Env)) {
	if p < 0 || p >= c.sub.N() {
		r.err = fmt.Errorf("%w: %s at %d (cluster has %d)", ErrInvalidProcess, label, p, c.sub.N())
		close(r.done)
		return
	}
	if c.simNet != nil {
		r.drive = c.simNet.Drive
	}
	c.sub.Submit(core.ProcID(p), func(env core.Env) bool {
		if !r.accepted {
			r.accepted = invoke(env)
		}
		return r.accepted && decided(env)
	}, func(env core.Env, err error) {
		if err != nil && r.accepted && onAbort != nil {
			onAbort(env)
		}
		if err == nil {
			err = r.fail
		}
		r.err = describeErr(err, label, p)
		close(r.done)
	})
}

// describeErr maps substrate errors onto the façade's sentinel errors.
func describeErr(err error, label string, p int) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, core.ErrClosed):
		return fmt.Errorf("%w: %s at %d", ErrClosed, label, p)
	case errors.As(err, new(*sim.ErrBudget)): // the target escapes: made only for an error that is not ErrClosed
		return fmt.Errorf("%w: %s at %d", ErrBudget, label, p)
	}
	return fmt.Errorf("snapstab: %s at %d: %w", label, p, err)
}

// corruptMachines randomizes every machine's protocol state, process by
// process under each one's substrate-atomic context: the same draws in
// the same order on every substrate.
func (c *clusterCore) corruptMachines(r *rng.Source) {
	for p := 0; p < c.sub.N(); p++ {
		stack := c.stacks[p]
		c.sub.Do(core.ProcID(p), func(core.Env) { stack.Corrupt(r) })
	}
}

// fillChannelGarbage loads every channel with random well-formed
// messages, each machine drawing its own instance's (config.FillChannels).
// Preloading channels needs scheduler cooperation, so it exists only on
// the deterministic substrate; on the concurrent engines channels start
// empty, which the model permits (the arbitrary state is the machines').
func (c *clusterCore) fillChannelGarbage(r *rng.Source) {
	if net := c.simNet; net != nil {
		net.Sync(func() { config.FillChannels(net, r, config.Options{}) })
	}
}

// CorruptEverything drives the cluster into an arbitrary initial
// configuration: every protocol variable randomized and — on the
// deterministic substrate — every channel filled with garbage the
// protocol's own machines draw (the concurrent substrates start with
// empty channels, which the model permits: their arbitrary state is the
// machines'). Reproducible from the seed. Every family but mutual
// exclusion uses it as is; MutexCluster overrides it to prime the
// checker's zombie critical-section entries between the two draws.
func (c *clusterCore) CorruptEverything(seed uint64) {
	r := rng.New(seed)
	c.corruptMachines(r)
	c.fillChannelGarbage(r)
}
