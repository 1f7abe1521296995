package tcp

import (
	"errors"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// ErrRemoteProcess completes a Host.Submit at any process other than the
// hosted one: a daemon can only observe its own process; requests at
// other processes belong to their daemons.
var ErrRemoteProcess = errors.New("tcp: process is hosted by another daemon")

// HostConfig describes one daemon's place in a multi-host fleet.
type HostConfig struct {
	// Self is the process this daemon hosts.
	Self core.ProcID
	// Listen is the local listen address (use port 0 to let the kernel
	// pick; the bound address is available via Host.Addr).
	Listen string
	// Peers maps every process ID to its advertised address. Entry Self
	// is ignored. An empty entry leaves that link unwired: sends to it
	// vanish silently, as to an unwired UDP peer.
	Peers []string
}

// Host is a core.Substrate hosting exactly one process of an n-process
// fleet over TCP. The other processes run in other daemons; their stacks
// exist here only as inert local copies, kept so that seeded whole-
// cluster operations (corruption draws in particular) consume the same
// randomness at the same stack positions in every daemon — a fleet of n
// daemons sharing a seed perturbs its n real processes exactly as one
// local cluster would.
type Host struct {
	group  *engine.Group
	self   core.ProcID
	stacks []core.Stack
	deadMu []sync.Mutex // one per inert stack; index Self is unused
}

var _ core.Substrate = (*Host)(nil)

// NewHost binds the hosted process's listener and attaches its stack as
// group 0 (engine.Host, which takes opts), and starts it. The caller
// owns the host and must Close it.
func NewHost(cfg HostConfig, stacks []core.Stack, opts ...engine.Option) (*Host, error) {
	n := len(stacks)
	if n < 2 {
		return nil, fmt.Errorf("tcp: need at least 2 processes, got %d", n)
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= n {
		return nil, fmt.Errorf("tcp: self %d outside fleet of %d", cfg.Self, n)
	}
	if len(cfg.Peers) != n {
		return nil, fmt.Errorf("tcp: %d peer addresses for a fleet of %d", len(cfg.Peers), n)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = ":0"
	}
	g, err := engine.Host(Transport, cfg.Self, stacks[cfg.Self], listen, cfg.Peers, opts...)
	if err != nil {
		return nil, err
	}
	g.Node().Start()
	return &Host{
		group:  g,
		self:   cfg.Self,
		stacks: stacks,
		deadMu: make([]sync.Mutex, n),
	}, nil
}

// N returns the fleet size (not the number of local processes).
func (h *Host) N() int { return len(h.stacks) }

// Self returns the hosted process.
func (h *Host) Self() core.ProcID { return h.self }

// Addr returns the hosted node's bound listen address.
func (h *Host) Addr() string { return h.group.Node().Addr() }

// deadEnv is the environment handed to Do calls against inert remote
// stacks: sends vanish (the stack is not connected to anything) and
// events are discarded.
type deadEnv struct {
	self core.ProcID
	n    int
}

func (d deadEnv) Self() core.ProcID                   { return d.self }
func (d deadEnv) N() int                              { return d.n }
func (d deadEnv) Send(to core.ProcID, m core.Message) {}
func (d deadEnv) Emit(ev core.Event)                  {}

// Do runs f atomically at process p. For the hosted process this is the
// real node's action mutex; for any other process it runs against the
// inert local stack copy with a detached environment — state mutations
// (seeded corruption) land, sends vanish.
func (h *Host) Do(p core.ProcID, f func(env core.Env)) {
	if p == h.self {
		h.group.Do(f)
		return
	}
	h.deadMu[p].Lock()
	f(deadEnv{self: p, n: len(h.stacks)})
	h.deadMu[p].Unlock()
}

// Submit registers a request at the hosted process like Cluster.Submit;
// at any other process it completes at once, under that process's inert
// stack's mutex, with ErrRemoteProcess — that process's daemon is the
// only place its requests can be issued and observed.
func (h *Host) Submit(p core.ProcID, cond func(env core.Env) bool, done func(env core.Env, err error)) {
	if p != h.self {
		h.Do(p, func(env core.Env) {
			done(env, fmt.Errorf("%w: %d (this daemon hosts %d)", ErrRemoteProcess, p, h.self))
		})
		return
	}
	h.group.Submit(cond, done)
}

// TransportStats returns one entry per fleet process: real counters at
// the hosted index, zero values elsewhere (those counters live in the
// other daemons).
func (h *Host) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(h.stacks))
	out[h.self] = h.group.Stats()
	return out
}

// FaultStats returns the hosted node's injector counters. Part of
// core.Substrate.
func (h *Host) FaultStats() core.FaultStats { return h.group.Stats().Faults }

// Close stops the hosted node. Idempotent.
func (h *Host) Close() error {
	h.group.Node().Stop()
	return nil
}
