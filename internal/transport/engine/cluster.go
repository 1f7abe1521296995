package engine

import (
	"fmt"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// This file is substrate-mode driving: Cluster runs one cluster on
// dedicated loopback nodes, Mux hosts many clusters on one shared set —
// each attached cluster a fresh wire group on every node, so thousands
// of logical snap-stabilizing groups (one per tree, one per tenant)
// share n links and their timers instead of each paying for its
// own. Groups are isolated end to end: routing, observers, topology,
// fault plane, and counters are per group, and a frame for a group a
// node does not host is dropped before it can reach another group's
// channels.

// Submit registers a request at the node's default group; see
// members.Submit.
func (n *Node) Submit(cond func(env core.Env) bool, done func(env core.Env, err error)) {
	n.g0.submit(cond, done)
}

// submit registers a request with the group's waiters in an atomic
// section ending with an eager Step (a request its condition injected
// starts at once); the node's later sections complete it. A pending
// request keeps the step tick coming.
func (g *Group) submit(cond func(env core.Env) bool, done func(env core.Env, err error)) {
	n := g.n
	n.mu.Lock()
	g.waiters.Submit(g.envs[core.PathAction], cond, done)
	if !g.down() {
		g.stack.Step(g.envs[core.PathEager])
	}
	if g.waiters.Len() > 0 {
		n.owe()
	}
	n.flush()
	n.release()
}

// closeWaiters completes the group's pending requests, and every later
// one, with core.ErrClosed, in an atomic section.
func (g *Group) closeWaiters() {
	g.n.mu.Lock()
	g.waiters.Close(g.envs[core.PathAction])
	g.n.release()
}

// members is the core.Substrate face shared by Cluster and MuxCluster:
// one group per process.
type members struct {
	groups []*Group
}

// N returns the number of processes.
func (c *members) N() int { return len(c.groups) }

// Do runs f under process p's action mutex with this cluster's
// environment.
func (c *members) Do(p core.ProcID, f func(env core.Env)) {
	g := c.groups[p]
	g.n.doGroup(g, f)
}

// Submit registers a request at process p: cond is evaluated under p's
// action mutex at the end of each atomic section at p, and done runs in
// the section where it held (nil), or when the node halts or the view
// closes (core.ErrClosed).
func (c *members) Submit(p core.ProcID, cond func(env core.Env) bool, done func(env core.Env, err error)) {
	c.groups[p].submit(cond, done)
}

// TransportStats implements core.TransportStatser: one snapshot per
// process. The message counters (Links[] too: Sends is the sum of
// Links[i].Sent) and window gauges are this cluster's own; the frame,
// syscall and redial counters are the node's, shared with its siblings.
func (c *members) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.Stats()
	}
	return out
}

// FaultStats sums the groups' injector counters. Part of core.Substrate.
func (c *members) FaultStats() core.FaultStats {
	return core.FaultTotals(c.TransportStats())
}

// loopback binds one node per stack on a loopback port the kernel
// picks, wires the learned addresses (SetPeer keeps to the topology's
// edges), and starts them: the two-phase setup every in-process cluster
// needs.
func loopback(t Transport, stacks []core.Stack, opts []Option) ([]*Node, error) {
	if len(stacks) < 2 {
		return nil, fmt.Errorf("engine: need at least 2 processes, got %d", len(stacks))
	}
	nodes, unwired := make([]*Node, len(stacks)), make([]string, len(stacks))
	for i, s := range stacks {
		node, err := NewNode(t, core.ProcID(i), s, "127.0.0.1:0", unwired, opts...)
		if err != nil {
			stopAll(nodes[:i])
			return nil, fmt.Errorf("engine: bind node %d: %w", i, err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		for j, other := range nodes {
			if err := node.SetPeer(core.ProcID(j), other.Addr()); err != nil {
				stopAll(nodes)
				return nil, err
			}
		}
	}
	// One tick zero for the whole cluster, fixed before any node runs: a
	// started node's frames may arrive at peers whose turn is yet to come.
	epoch := time.Now()
	for _, node := range nodes {
		node.setEpoch(epoch)
	}
	for _, node := range nodes {
		node.launch()
	}
	return nodes, nil
}

// stopAll halts every node before it waits for any, so a teardown costs
// the slowest node's Stop rather than their sum.
func stopAll(nodes []*Node) {
	for _, node := range nodes {
		node.halt()
	}
	for _, node := range nodes {
		node.Stop()
	}
}

func addrs(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, node := range nodes {
		out[i] = node.Addr()
	}
	return out
}

// Cluster is a set of nodes on the loopback interface, one per protocol
// stack, fully wired and started.
type Cluster struct {
	members
	nodes     []*Node
	closeOnce sync.Once
}

var _ core.Substrate = (*Cluster)(nil)

// NewCluster binds one loopback node per stack, wires every node to its
// neighbours, and starts them. The caller owns the cluster and must
// Close it to release the sockets.
func NewCluster(t Transport, stacks []core.Stack, opts ...Option) (*Cluster, error) {
	nodes, err := loopback(t, stacks, opts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{nodes: nodes, members: members{groups: make([]*Group, len(nodes))}}
	for i, node := range nodes {
		c.groups[i] = node.g0
	}
	return c, nil
}

// Addrs returns every node's bound local address.
func (c *Cluster) Addrs() []string { return addrs(c.nodes) }

// Close stops every node, releasing timers, loops and sockets. Idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() { stopAll(c.nodes) })
	return nil
}

// Mux hosts many core.Substrate instances over one set of nodes.
type Mux struct {
	nodes []*Node

	mu      sync.Mutex
	nextGid uint64
	closed  bool

	closeOnce sync.Once
}

// NewMux binds one bare loopback node per process — no default group —
// and starts them. Options must be node-level (capacity,
// batch); per-cluster options (topology, faults, observers) belong to
// Attach. The caller owns the mux and must Close it to release the
// sockets.
func NewMux(t Transport, nProcs int, opts ...Option) (*Mux, error) {
	// No default topology, so the wiring is full: per-group topologies
	// restrict traffic at the message level.
	nodes, err := loopback(t, make([]core.Stack, max(nProcs, 0)), opts)
	if err != nil {
		return nil, err
	}
	return &Mux{nodes: nodes, nextGid: 1}, nil
}

// N returns the number of processes.
func (m *Mux) N() int { return len(m.nodes) }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string { return addrs(m.nodes) }

// Parked reports whether every node's timer is parked: no node owes
// anything, so none ticks again before traffic or a request comes.
func (m *Mux) Parked() bool {
	parked := true
	for _, node := range m.nodes {
		node.mu.Lock()
		parked = parked && node.next == never
		node.release()
	}
	return parked
}

// Attach installs one cluster — one stack per process — as a fresh
// group on every node and returns its substrate view. Options here are
// per-cluster (WithTopology, WithFaults, WithObserver); node-level
// options are rejected, they were fixed at NewMux. Attach may be called
// any time while the mux runs; a cluster's fault schedule starts at its
// own attach instant.
func (m *Mux) Attach(stacks []core.Stack, opts ...Option) (*MuxCluster, error) {
	if len(stacks) != len(m.nodes) {
		return nil, fmt.Errorf("engine: %d stacks for a mux of %d processes", len(stacks), len(m.nodes))
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.capacity != 0 || o.batch != 0 {
		return nil, fmt.Errorf("engine: node-level option per attached cluster; set it on NewMux")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("engine: mux closed")
	}
	gid := m.nextGid
	m.nextGid++
	m.mu.Unlock()

	c := &MuxCluster{}
	epoch := time.Now()
	for i, node := range m.nodes {
		g, err := node.buildGroup(gid, stacks[i], o.topology, o.faults, o.observers)
		if err != nil {
			c.Close()
			return nil, err
		}
		g.epoch = epoch
		c.groups = append(c.groups, g)
		node.setGroup(gid, g)
		node.doGroup(g, func(core.Env) {}) // its stack steps at the next tick
	}
	return c, nil
}

// Close stops every node, releasing timers, loops and sockets — and with them
// every attached cluster. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.closeOnce.Do(func() { stopAll(m.nodes) })
	return nil
}

// MuxCluster is one cluster hosted on a Mux: a core.Substrate whose
// processes share their links and timers with every other attached
// cluster, isolated from them by the frame's group id.
type MuxCluster struct {
	members
	closeOnce sync.Once
}

var _ core.Substrate = (*MuxCluster)(nil)

// Group returns the wire group id this cluster's traffic carries.
func (c *MuxCluster) Group() uint64 { return c.groups[0].id }

// Close detaches the cluster from every node: its pending requests fail
// with core.ErrClosed, its channels and their mail go, subsequent frames
// for its group id are dropped, and the mux keeps running for its
// siblings. Idempotent.
func (c *MuxCluster) Close() error {
	c.closeOnce.Do(func() {
		for _, g := range c.groups {
			g.closeWaiters()
			g.n.setGroup(g.id, nil)
		}
	})
	return nil
}
