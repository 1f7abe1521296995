package engine

import (
	"fmt"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// This file is substrate-mode driving: a Cluster is one protocol stack
// per process, each attached as a group of its process's node. NewCluster
// runs one on dedicated loopback nodes; a Mux hosts many on one shared
// set — each attached cluster a fresh wire group on every node, so
// thousands of logical snap-stabilizing groups (one per tree, one per
// tenant) share n links and their timers instead of each paying for its
// own. Groups are isolated end to end: routing, observers, topology,
// fault plane, and counters are per group, and a frame for a group a
// node does not host is dropped before it can reach another group's
// channels.

// Submit registers a request with the group's waiters in an atomic
// section ending with an eager Step (a request its condition injected
// starts at once): cond is evaluated under the node's action mutex at
// the end of each atomic section there, and done runs in the section
// where it held (nil), or when the node halts or the group detaches
// (core.ErrClosed). A pending request keeps the step tick coming.
func (g *Group) Submit(cond func(env core.Env) bool, done func(env core.Env, err error)) {
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

// loopback binds n unstarted nodes on loopback ports the kernel picks,
// each link sized for its process's entry in stacks (nil on a mux), and
// wires the learned addresses (SetPeer keeps to the topology's edges):
// the two-phase setup every in-process cluster needs.
func loopback(t Transport, n int, stacks []core.Stack, o options) ([]*Node, error) {
	if n < 2 {
		return nil, fmt.Errorf("engine: need at least 2 processes, got %d", n)
	}
	nodes, unwired := make([]*Node, n), make([]string, n)
	for i := range nodes {
		instances := 0
		if stacks != nil {
			instances = len(stacks[i])
		}
		node, err := newNode(t, core.ProcID(i), "127.0.0.1:0", unwired, instances, o)
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

// Cluster is one protocol stack per process, each hosted as group
// Group() of its process's node: on loopback nodes of its own
// (NewCluster), or on a Mux's shared ones, isolated from its siblings by
// the frame's group id.
type Cluster struct {
	groups []*Group // indexed by process
	nodes  []*Node  // the nodes NewCluster bound, which Close stops; nil on a Mux
}

var _ core.Substrate = (*Cluster)(nil)

// attach hosts stacks[i] on nodes[i] as group id, one fault-schedule
// tick zero for them all.
func attach(nodes []*Node, id uint64, stacks []core.Stack, o options) (*Cluster, error) {
	c := &Cluster{}
	epoch := time.Now()
	for i, node := range nodes {
		g, err := node.attach(id, stacks[i], o, epoch)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.groups = append(c.groups, g)
	}
	return c, nil
}

// NewCluster binds one loopback node per stack, wires every node to its
// neighbours, attaches each stack as group 0 and starts the nodes. It
// takes Host's options. The caller owns the cluster and must Close it to
// release the sockets.
func NewCluster(t Transport, stacks []core.Stack, opts ...Option) (*Cluster, error) {
	o := apply(nodeDefaults, opts)
	nodes, err := loopback(t, len(stacks), stacks, o)
	if err != nil {
		return nil, err
	}
	c, err := attach(nodes, 0, stacks, o)
	if err != nil {
		stopAll(nodes)
		return nil, err
	}
	c.nodes = nodes
	for _, node := range nodes {
		node.Start()
	}
	return c, nil
}

// N returns the number of processes.
func (c *Cluster) N() int { return len(c.groups) }

// Group returns the wire group id this cluster's traffic carries.
func (c *Cluster) Group() uint64 { return c.groups[0].id }

// Do runs f under process p's action mutex with this cluster's
// environment (Group.Do).
func (c *Cluster) Do(p core.ProcID, f func(env core.Env)) { c.groups[p].Do(f) }

// Submit registers a request at process p (Group.Submit).
func (c *Cluster) Submit(p core.ProcID, cond func(env core.Env) bool, done func(env core.Env, err error)) {
	c.groups[p].Submit(cond, done)
}

// TransportStats implements core.TransportStatser: one snapshot per
// process. The message counters (Links[] too: Sends is the sum of
// Links[i].Sent) and window gauges are this cluster's own; the frame,
// syscall and redial counters are the node's, shared with any siblings.
func (c *Cluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.groups))
	for i, g := range c.groups {
		out[i] = g.Stats()
	}
	return out
}

// FaultStats sums the groups' injector counters. Part of core.Substrate.
func (c *Cluster) FaultStats() core.FaultStats {
	return core.FaultTotals(c.TransportStats())
}

// Close detaches the cluster from every node: its pending requests fail
// with core.ErrClosed, its channels and their mail go, and subsequent
// frames for its group id are dropped. A Mux keeps running for the
// siblings; nodes NewCluster bound stop, releasing timers, loops and
// sockets. Idempotent.
func (c *Cluster) Close() error {
	for _, g := range c.groups {
		g.closeWaiters()
		g.n.setGroup(g.id, nil)
	}
	stopAll(c.nodes)
	return nil
}

// Mux hosts many clusters over one set of nodes.
type Mux struct {
	nodes []*Node

	mu      sync.Mutex
	nextGid uint64
	closed  bool
}

// NewMux binds one bare loopback node per process, fully wired, and
// starts them. Options must be node-level (capacity, batch); per-cluster
// options (topology, faults, observers) belong to Attach. The caller
// owns the mux and must Close it to release the sockets.
func NewMux(t Transport, nProcs int, opts ...Option) (*Mux, error) {
	o := apply(nodeDefaults, opts)
	if o.topology != nil || o.faults != nil || len(o.observers) > 0 {
		return nil, fmt.Errorf("engine: per-cluster option on a mux; give it to Attach")
	}
	nodes, err := loopback(t, nProcs, nil, o)
	if err != nil {
		return nil, err
	}
	for _, node := range nodes {
		node.Start()
	}
	return &Mux{nodes: nodes, nextGid: 1}, nil
}

// N returns the number of processes.
func (m *Mux) N() int { return len(m.nodes) }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string {
	out := make([]string, len(m.nodes))
	for i, node := range m.nodes {
		out[i] = node.Addr()
	}
	return out
}

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
// group on every node. Options here are per-cluster (WithTopology,
// WithFaults, WithObserver); node-level options are rejected, they were
// fixed at NewMux. Attach may be called any time while the mux runs; a
// cluster's fault schedule starts at its own attach instant.
func (m *Mux) Attach(stacks []core.Stack, opts ...Option) (*Cluster, error) {
	if len(stacks) != len(m.nodes) {
		return nil, fmt.Errorf("engine: %d stacks for a mux of %d processes", len(stacks), len(m.nodes))
	}
	o := apply(options{}, opts)
	if o.capacity != 0 || o.batch != 0 {
		return nil, fmt.Errorf("engine: node-level option on an attached cluster; it was fixed at NewMux")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("engine: mux closed")
	}
	gid := m.nextGid
	m.nextGid++
	m.mu.Unlock()
	return attach(m.nodes, gid, stacks, o)
}

// Close stops every node, releasing timers, loops and sockets — and with them
// every attached cluster. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	stopAll(m.nodes)
	return nil
}
