package snapstab

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/transport/engine"
	tcp "github.com/snapstab/snapstab/internal/transport/tcp"
	udp "github.com/snapstab/snapstab/internal/transport/udp"
	"github.com/snapstab/snapstab/internal/window"
)

// Substrate selects the execution engine a cluster runs on. The paper's
// guarantee — every request satisfied from an arbitrary initial
// configuration — is substrate-independent, and so is the cluster API:
// the same cluster code runs on every engine.
//
//   - Sim: the deterministic seeded simulator (default). Executions
//     replay exactly from (topology, options); Stats reports scheduler
//     counters; step budgets apply.
//   - Runtime: the concurrent engine of UDP and TCP on an in-memory
//     link carrying the sockets' frames as values — real concurrency,
//     no sockets, not reproducible. Use context deadlines instead of
//     step budgets.
//   - UDP: one loopback socket per process exchanging wire-encoded
//     datagrams — the paper's concluding "future challenge". Natural
//     loss, and the known capacity bound enforced by a per-link
//     sender-side window (WithCapacity); messages coalesce into wire
//     v4 link-frame datagrams, as on every concurrent substrate.
//   - TCP: one loopback listener per process with persistent
//     connections; the same per-link window restores the model's
//     bounded channels, and connection loss is message loss.
//   - TCPHost: one real process of a multi-daemon TCP fleet.
//   - Mux.Substrate(): a cluster attached as a wire group on a shared
//     UDPMux/TCPMux socket layer.
//
// A Substrate value is a specification; the engine itself is built when
// the cluster is constructed and released by the cluster's Close.
type Substrate struct {
	// fixedCapacity, when nonzero, overrides WithCapacity: a mux fixed
	// its window when its sockets were built.
	fixedCapacity int
	// build constructs and starts the engine from one stack per process.
	// o.capacity is already resolved (see options.resolveCapacity).
	build func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error)
}

// resolveCapacity settles the one channel-capacity bound c of a
// cluster: what the engine enforces per directed link and what the
// machines' flag domain {0..2c+2} is sized from. Without WithCapacity it
// is the paper's c = 1 (engine.DefaultCapacity) on every substrate. It
// panics when the domain would not fit the wire format's one-byte flags.
func (o *options) resolveCapacity() {
	switch {
	case o.substrate.fixedCapacity > 0:
		o.capacity = o.substrate.fixedCapacity
	case o.capacity == 0:
		o.capacity = engine.DefaultCapacity
	}
	if o.capacity < 1 || o.capacity > window.MaxCapacity {
		panic(fmt.Sprintf("snapstab: capacity %d outside 1..%d", o.capacity, window.MaxCapacity))
	}
}

// Sim selects the deterministic simulator: the substrate of the paper's
// model in its purest form, and of every experiment. WithSeed,
// WithLossRate, WithCapacity, and WithStepBudget all apply.
func Sim() Substrate {
	return Substrate{
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			sopts := []sim.Option{
				sim.WithSeed(o.seed),
				sim.WithLossRate(o.lossRate),
				sim.WithCapacity(o.capacity),
				sim.WithAwaitBudget(o.maxSteps),
			}
			if o.topology != nil {
				sopts = append(sopts, sim.WithTopology(o.topology))
			}
			if o.faults != nil {
				sopts = append(sopts, sim.WithFaults(o.faults))
			}
			for _, ob := range obs {
				sopts = append(sopts, sim.WithObserver(ob))
			}
			return sim.New(stacks, sopts...), nil
		},
	}
}

// Runtime selects the concurrent engine on its in-memory link: each
// process an action mutex and a timer, with no goroutine of its own
// unless its load outlasts a release's budget, the sockets' frames —
// packed and stamped by the same engine — handed between them as values
// and delivered by whichever section is running or next to end
// (DESIGN.md §7), the per-link
// window of WithCapacity (default 1, the paper's) enforced as on the
// sockets; it takes the same node options as UDP and TCP. WithLossRate
// is the fault plane's drop rate here — a plan of FaultPlan{Seed: seed,
// Default: LinkFaults{DropRate: p}} — so the losses read in
// FaultStats().Drops, and combining it with WithFaults panics: state the
// loss in the plan. WithSeed seeds only corruption and that plan
// (executions are genuinely nondeterministic) and WithStepBudget is
// ignored — bound requests with Request.Wait contexts instead.
func Runtime() Substrate {
	return Substrate{
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			if o.lossRate != 0 {
				if o.faults != nil {
					panic("snapstab: WithLossRate and WithFaults on Runtime: state the loss in the plan")
				}
				// A drop at arrival frees the window slot: the model's lost
				// message no longer occupies the channel.
				o.faults = &core.FaultPlan{Seed: o.seed, Default: core.LinkFaults{DropRate: o.lossRate}}
			}
			return newCluster(engine.Memory()).build(o, stacks, obs)
		},
	}
}

// groupOptions assembles the per-cluster transport options: what a
// dedicated socket substrate and a mux attachment both take.
func groupOptions(o options, obs []core.Observer) []engine.Option {
	eopts := make([]engine.Option, 0, len(obs)+4)
	for _, ob := range obs {
		eopts = append(eopts, engine.WithObserver(ob))
	}
	if o.topology != nil {
		eopts = append(eopts, engine.WithTopology(o.topology))
	}
	if o.faults != nil {
		eopts = append(eopts, engine.WithFaults(o.faults))
	}
	return eopts
}

// nodeOptions is everything a dedicated node — in memory or on sockets —
// takes: the group's options and the window its sockets enforce.
func nodeOptions(o options, obs []core.Observer) []engine.Option {
	return append(groupOptions(o, obs), engine.WithCapacity(o.capacity))
}

// newCluster builds a cluster on engine nodes of its own, on transport t.
func newCluster(t engine.Transport) Substrate {
	return Substrate{
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			return engine.NewCluster(t, stacks, nodeOptions(o, obs)...)
		},
	}
}

// UDP selects the loopback datagram transport: one socket per process,
// wire-encoded messages, natural loss. WithCapacity (default 1, the
// paper's) is the channel-capacity bound c the transport enforces: every directed
// link admits at most c unconsumed messages, a send beyond that is lost
// at the sender, and the machines' flag domain is sized from the same
// number — so one request costs 2c+2 round trips per peer. Each frame is
// one datagram. WithLossRate and WithStepBudget are ignored —
// UDP loses messages on its own, and requests are bounded with
// Request.Wait contexts. Socket binding happens at cluster construction
// and panics on failure.
func UDP() Substrate { return newCluster(udp.Transport) }

// TCP selects the loopback stream transport: one listener per process,
// persistent connections carrying length-prefixed wire frames, redial
// with backoff on connection loss. TCP delivers reliably per connection,
// so the transport restores the model's lossy bounded channels at its
// edges: WithCapacity (default 1, the paper's) is the channel-capacity
// bound c it enforces with a per-link sender-side window exactly as on
// UDP — a send beyond c unconsumed messages is lost at the sender, and
// the machines' flag domain is sized from the same number — and
// connection loss is message loss. Each frame is UDP's, length-prefixed on the
// stream. WithLossRate and WithStepBudget are ignored —
// bound requests with Request.Wait contexts. Listener binding happens
// at cluster construction and panics on failure.
func TCP() Substrate { return newCluster(tcp.Transport) }

// TCPFleet describes one daemon's place in a multi-host TCP fleet, for
// TCPHost.
type TCPFleet struct {
	// Self is the process this OS process hosts (the cluster's other
	// processes run in other daemons).
	Self int
	// Listen is the local listen address; port 0 lets the kernel pick.
	Listen string
	// Peers maps every process ID to its advertised address (entry Self
	// is ignored). Length must equal the cluster size. An empty entry
	// leaves that link unwired.
	Peers []string
}

// TCPHost selects single-process fleet hosting: the cluster API drives
// ONE process over TCP while the rest of the fleet runs in other OS
// processes (snapd daemons) built from the same cluster parameters.
// Every cluster method that targets another daemon's process returns an
// error wrapping ErrRemoteProcess — issue those requests at that
// process's daemon. Whole-cluster seeded operations (CorruptEverything)
// remain fleet-deterministic: each daemon holds inert copies of the
// remote stacks so the seeded draws line up across the fleet.
func TCPHost(f TCPFleet) Substrate {
	return Substrate{
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			cfg := tcp.HostConfig{
				Self:   core.ProcID(f.Self),
				Listen: f.Listen,
				Peers:  f.Peers,
			}
			return tcp.NewHost(cfg, stacks, nodeOptions(o, obs)...)
		},
	}
}

// ErrRemoteProcess is returned (wrapped) by requests addressed to a
// process hosted by another daemon on the TCPHost substrate.
var ErrRemoteProcess = tcp.ErrRemoteProcess

// WithSubstrate selects the execution substrate (default Sim()).
func WithSubstrate(s Substrate) Option {
	return func(o *options) { o.substrate = s }
}

// capacityBound is the pif option every cluster constructor builds its
// machines with: the same c the substrate enforces.
func capacityBound(o options) pif.Option {
	return pif.WithCapacityBound(o.capacity)
}
