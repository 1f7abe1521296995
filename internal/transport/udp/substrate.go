// Substrate-mode driving: Cluster assembles one Node per stack on
// loopback sockets and implements core.Substrate over the set, so the
// façade can run the same cluster code over real datagrams. The two-phase
// setup (bind every socket on port 0 first, then wire the learned
// addresses) that cmd/snapnet used to hand-roll lives here now.
package udp

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// ErrStopped is returned by Cluster.Await when the cluster was closed
// before the condition held.
var ErrStopped = errors.New("udp: cluster stopped")

// Cluster is a set of UDP nodes on the loopback interface, one per
// protocol stack, fully wired and started.
type Cluster struct {
	nodes     []*Node
	closeOnce sync.Once
}

var _ core.Substrate = (*Cluster)(nil)

// NewCluster binds one loopback socket per stack, wires every node to
// every other, and starts them. The caller owns the cluster and must
// Close it to release the sockets.
func NewCluster(stacks []core.Stack, opts ...Option) (*Cluster, error) {
	n := len(stacks)
	if n < 2 {
		return nil, fmt.Errorf("udp: need at least 2 processes, got %d", n)
	}
	c := &Cluster{nodes: make([]*Node, n)}
	addrs := make([]*net.UDPAddr, n)
	for i, s := range stacks {
		node, err := NewNode(core.ProcID(i), s, "127.0.0.1:0", make([]string, n), opts...)
		if err != nil {
			for _, prev := range c.nodes[:i] {
				prev.Stop()
			}
			return nil, fmt.Errorf("udp: bind node %d: %w", i, err)
		}
		c.nodes[i] = node
		addrs[i] = node.conn.LocalAddr().(*net.UDPAddr)
	}
	// Wire addresses along edges only: under a topology a node simply
	// never learns where its non-neighbours live, mirroring a deployment
	// where each host is configured with its neighbour list.
	topo := c.nodes[0].topo0
	for i, node := range c.nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			if topo != nil && !topo.HasEdge(core.ProcID(i), core.ProcID(j)) {
				continue
			}
			node.SetPeer(core.ProcID(j), a)
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

// TransportStats implements core.TransportStatser: one snapshot per node
// in the substrate-agnostic shape. UDP's message counters are
// node-level, so Links carries the window gauges only; the datagram and
// syscall counters expose the batching path's amortization
// (Sends/SendDatagrams is the batch occupancy, Sends/SendSyscalls the
// syscall amortization).
func (c *Cluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = node.transportStats(node.g0)
	}
	return out
}

var _ core.TransportStatser = (*Cluster)(nil)

// Do runs f under node p's action mutex with its environment.
func (c *Cluster) Do(p core.ProcID, f func(env core.Env)) {
	c.nodes[p].Do(f)
}

// Await evaluates cond under node p's action mutex until it holds,
// polling at millisecond cadence (deliveries are event-driven; the poll
// bounds only external observation latency). It returns nil, ctx.Err(),
// or ErrStopped.
func (c *Cluster) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	node := c.nodes[p]
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
