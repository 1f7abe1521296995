// Substrate-mode driving, in two shapes. Cluster assembles one Node per
// stack on loopback listeners — the TCP twin of udp.Cluster, used by the
// façade's TCP() substrate and the tests. Host runs ONE real node of a
// fleet whose other processes live in other OS processes (snapd daemons
// on other hosts): it still holds all n stacks so that seeded operations
// (CorruptEverything) stay deterministic fleet-wide, but only stacks[self]
// is driven by a transport; the rest are inert local copies.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// ErrStopped is returned by Await when the substrate was closed before
// the condition held.
var ErrStopped = errors.New("tcp: stopped")

// ErrRemoteProcess is returned by Host.Await for any process other than
// the hosted one: a daemon can only observe its own process; requests at
// other processes belong to their daemons.
var ErrRemoteProcess = errors.New("tcp: process is hosted by another daemon")

// Cluster is a set of TCP nodes on the loopback interface, one per
// protocol stack, fully wired and started.
type Cluster struct {
	nodes     []*Node
	closeOnce sync.Once
}

var _ core.Substrate = (*Cluster)(nil)
var _ core.TransportStatser = (*Cluster)(nil)

// NewCluster binds one loopback listener per stack on port 0, wires the
// learned addresses along the topology's edges, and starts every node.
func NewCluster(stacks []core.Stack, opts ...Option) (*Cluster, error) {
	n := len(stacks)
	if n < 2 {
		return nil, fmt.Errorf("tcp: need at least 2 processes, got %d", n)
	}
	c := &Cluster{nodes: make([]*Node, n)}
	for i, s := range stacks {
		node, err := NewNode(core.ProcID(i), s, "127.0.0.1:0", make([]string, n), opts...)
		if err != nil {
			for _, prev := range c.nodes[:i] {
				prev.Stop()
			}
			return nil, fmt.Errorf("tcp: bind node %d: %w", i, err)
		}
		c.nodes[i] = node
	}
	// Wire addresses along edges only: under a topology a node simply
	// never learns where its non-neighbours live, mirroring a deployment
	// where each host is configured with its neighbour list.
	topo := c.nodes[0].topo0
	for i, node := range c.nodes {
		for j, other := range c.nodes {
			if i == j {
				continue
			}
			if topo != nil && !topo.HasEdge(core.ProcID(i), core.ProcID(j)) {
				continue
			}
			node.SetPeer(core.ProcID(j), other.Addr())
		}
	}
	for _, node := range c.nodes {
		node.Start()
	}
	return c, nil
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.nodes) }

// Addrs returns every node's bound local address.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = node.Addr()
	}
	return out
}

// NodeStats returns every node's transport counters.
func (c *Cluster) NodeStats() []Stats {
	out := make([]Stats, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = node.Stats()
	}
	return out
}

// TransportStats implements core.TransportStatser: one snapshot per
// node, with per-directed-link counters.
func (c *Cluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = node.transportStats(node.g0)
	}
	return out
}

// Do runs f under node p's action mutex with its environment.
func (c *Cluster) Do(p core.ProcID, f func(env core.Env)) {
	c.nodes[p].Do(f)
}

// Await evaluates cond under node p's action mutex until it holds,
// polling at millisecond cadence (deliveries are event-driven; the poll
// bounds only external observation latency). It returns nil, ctx.Err(),
// or ErrStopped.
func (c *Cluster) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	return awaitNode(ctx, c.nodes[p], cond)
}

func awaitNode(ctx context.Context, node *Node, cond func(env core.Env) bool) error {
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		ok := false
		node.Do(func(env core.Env) { ok = cond(env) })
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-node.stop:
			return ErrStopped
		case <-ticker.C:
		}
	}
}

// Close stops every node, releasing loops and sockets. Idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() { stopAll(c.nodes) })
	return nil
}

// stopAll stops nodes concurrently, so a teardown costs the slowest
// node's Stop rather than their sum.
func stopAll(nodes []*Node) {
	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node *Node) {
			defer wg.Done()
			node.Stop()
		}(node)
	}
	wg.Wait()
}

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
	node      *Node
	self      core.ProcID
	stacks    []core.Stack
	deadMu    []sync.Mutex // one per inert stack; index Self is unused
	closeOnce sync.Once
}

var _ core.Substrate = (*Host)(nil)
var _ core.TransportStatser = (*Host)(nil)

// NewHost binds the hosted process's listener and starts it. The caller
// owns the host and must Close it.
func NewHost(cfg HostConfig, stacks []core.Stack, opts ...Option) (*Host, error) {
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
	node, err := NewNode(cfg.Self, stacks[cfg.Self], listen, cfg.Peers, opts...)
	if err != nil {
		return nil, err
	}
	h := &Host{
		node:   node,
		self:   cfg.Self,
		stacks: stacks,
		deadMu: make([]sync.Mutex, n),
	}
	node.Start()
	return h, nil
}

// N returns the fleet size (not the number of local processes).
func (h *Host) N() int { return len(h.stacks) }

// Self returns the hosted process.
func (h *Host) Self() core.ProcID { return h.self }

// Addr returns the hosted node's bound listen address.
func (h *Host) Addr() string { return h.node.Addr() }

// NodeStats returns the hosted node's transport counters.
func (h *Host) NodeStats() Stats { return h.node.Stats() }

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
		h.node.Do(f)
		return
	}
	h.deadMu[p].Lock()
	f(deadEnv{self: p, n: len(h.stacks)})
	h.deadMu[p].Unlock()
}

// Await observes the hosted process like Cluster.Await; for any other
// process it fails immediately with ErrRemoteProcess — that process's
// daemon is the only place its requests can be issued and observed.
func (h *Host) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	if p != h.self {
		return fmt.Errorf("%w: %d (this daemon hosts %d)", ErrRemoteProcess, p, h.self)
	}
	return awaitNode(ctx, h.node, cond)
}

// TransportStats returns one entry per fleet process: real counters at
// the hosted index, zero values elsewhere (those counters live in the
// other daemons).
func (h *Host) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(h.stacks))
	out[h.self] = h.node.transportStats(h.node.g0)
	return out
}

// Close stops the hosted node. Idempotent.
func (h *Host) Close() error {
	h.closeOnce.Do(func() { h.node.Stop() })
	return nil
}
