package snapstab

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/fwd"
	"github.com/snapstab/snapstab/internal/spec"
	"github.com/snapstab/snapstab/internal/wire"
)

// ForwardingCluster is a system running the snap-stabilizing
// message-forwarding protocol (after Cournier–Dubois–Villain) over a
// tree topology on the selected substrate, carrying application values
// of type T through the codec's opaque bodies. Every item submitted
// AFTER an arbitrary initial configuration is delivered to its
// destination exactly once — buffers, flags, and channels may initially
// hold arbitrary garbage, and the protocol still never loses, never
// duplicates, and never misdelivers a submitted item.
//
//	topo := snapstab.RandomTree(8, 7)
//	c := snapstab.NewForwardingCluster(8, snapstab.JSON[Order](), snapstab.WithTopology(topo))
//	defer c.Close()
//	c.CorruptEverything(42)
//	err := c.Send(0, 5, Order{SKU: "widget", Qty: 3}) // hop-by-hop along the tree path
//
// Items fabricated by the initial configuration may also surface at
// their apparent destination — the protocol deliberately does not throw
// away routable items it cannot prove fake — but they are delivered with
// a non-nil Delivery.Err and never count against the specification.
type ForwardingCluster[T any] struct {
	clusterCore
	codec    Codec[T]
	machines []*fwd.Forwarder

	// seq numbers every submitted item, starting at fwd.SeqFloor so
	// fabricated items (always below it) can never impersonate one.
	seq atomic.Int64

	chkMu   sync.Mutex // serializes checker access across process goroutines
	checker *spec.ForwardChecker

	recvMu sync.Mutex
	recv   [][]Delivery[T]
}

// Delivery is one item handed to the application at its destination.
type Delivery[T any] struct {
	// From is the item's source process.
	From int
	// Value is the decoded body; meaningful only when Err is nil.
	Value T
	// Err marks a delivery outside the typed contract: an item fabricated
	// by the arbitrary initial configuration, or a body the codec
	// rejects. The application must never receive a fabricated zero T
	// with a nil Err.
	Err error
}

// fwdInstance is the protocol instance ID of the forwarding layer.
const fwdInstance = "fwd"

// NewForwardingCluster builds an n-process forwarding deployment (n >= 2)
// carrying T-typed items through codec. The topology must be a tree —
// the protocol's routing and its no-loss argument rely on unique paths;
// without WithTopology the cluster defaults to Line(n), the linear-chain
// variant of the protocol.
func NewForwardingCluster[T any](n int, codec Codec[T], opts ...Option) *ForwardingCluster[T] {
	if codec == nil {
		panic("snapstab: NewForwardingCluster requires a codec")
	}
	o := buildOptions(opts)
	if o.topology == nil {
		o.topology = Line(n).t
	}
	topo := o.topology
	if topo.N() != n {
		panic(fmt.Sprintf("snapstab: NewForwardingCluster over a %d-process topology, want %d", topo.N(), n))
	}
	o.requireTopology("forward")
	c := &ForwardingCluster[T]{codec: codec, checker: spec.NewForwardChecker()}
	c.seq.Store(fwd.SeqFloor)
	hops := topo.NextHops()
	c.machines = make([]*fwd.Forwarder, n)
	c.recv = make([][]Delivery[T], n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		i := i
		cb := fwd.Callbacks{
			OnDeliver: func(_ core.Env, _ core.ProcID, it fwd.Item) { c.record(i, it) },
		}
		c.machines[i] = fwd.New(fwdInstance, core.ProcID(i), n, topo.Neighbors(core.ProcID(i)), hops[i], cb,
			fwd.WithCapacityBound(o.capacity))
		stacks[i] = core.Stack{c.machines[i]}
	}
	c.init(o, stacks, lockedChecker{&c.chkMu, c.checker})
	return c
}

// record appends a delivery at process p, decoding through the codec.
func (c *ForwardingCluster[T]) record(p int, it fwd.Item) {
	d := Delivery[T]{From: int(it.Src)}
	if it.Seq < fwd.SeqFloor {
		d.Err = fmt.Errorf("snapstab: item p%d->p%d#%d was fabricated by the initial configuration", it.Src, it.Dst, it.Seq)
	} else if v, err := c.codec.Unmarshal(it.Body); err != nil {
		d.Err = fmt.Errorf("snapstab: undecodable item body from %d: %w", it.Src, err)
	} else {
		d.Value = v
	}
	c.recvMu.Lock()
	c.recv[p] = append(c.recv[p], d)
	c.recvMu.Unlock()
}

// Deliveries returns the items delivered at process p so far, in
// delivery order. Safe to call while requests are in flight.
func (c *ForwardingCluster[T]) Deliveries(p int) []Delivery[T] {
	if p < 0 || p >= len(c.recv) {
		return nil
	}
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return append([]Delivery[T](nil), c.recv[p]...)
}

// delivered reads the armed key's verdict under the checker lock.
func (c *ForwardingCluster[T]) delivered(k spec.FwdKey) bool {
	c.chkMu.Lock()
	defer c.chkMu.Unlock()
	return c.checker.Delivered(k)
}

// ForwardRequest is the handle of an asynchronous Send.
type ForwardRequest struct {
	*Request
	key spec.FwdKey
}

// Key identifies the sent item ("p0->p5#65536") in logs and reports.
func (r *ForwardRequest) Key() string { return r.key.String() }

// SendAsync submits value v at process p for delivery at process dst and
// returns immediately. The item's key is armed on the cluster's
// forwarding spec checker before it enters the network, so the
// no-loss/no-duplication verdict (SpecReport) covers it on every
// substrate. The request completes when the item reaches dst.
func (c *ForwardingCluster[T]) SendAsync(p, dst int, v T) *ForwardRequest {
	req := &ForwardRequest{Request: c.newRequest()}
	if n := c.N(); dst < 0 || dst >= n {
		req.err = fmt.Errorf("%w: send to %d (cluster has %d)", ErrInvalidProcess, dst, n)
		close(req.done)
		return req
	}
	body, err := c.codec.Marshal(v)
	if err != nil {
		req.err = fmt.Errorf("snapstab: marshal item body: %w", err)
		close(req.done)
		return req
	}
	if len(body) > wire.MaxBlobLen {
		req.err = fmt.Errorf("snapstab: marshaled item of %d bytes exceeds the %d-byte wire limit", len(body), wire.MaxBlobLen)
		close(req.done)
		return req
	}
	it := fwd.Item{Src: core.ProcID(p), Dst: core.ProcID(dst), Seq: c.seq.Add(1) - 1, Body: body}
	req.key = spec.FwdKey{Src: it.Src, Dst: it.Dst, Seq: it.Seq}
	// On a substrate hosting a single process of a multi-daemon fleet the
	// destination's delivery event fires in another daemon, where this
	// checker cannot see it. There the request completes at hand-off —
	// the next hop has accepted the item, and the protocol's no-loss
	// guarantee carries it to dst; delivery confirmation lives at the
	// destination daemon (Deliveries at dst).
	h, hosted := c.sub.(interface{ Self() core.ProcID })
	handoff := hosted && int(h.Self()) == p && dst != p
	c.start(req.Request, p, "send", func(env core.Env) bool {
		c.chkMu.Lock()
		c.checker.Arm(req.key)
		c.chkMu.Unlock()
		c.machines[p].Submit(env, it)
		return true
	}, func(core.Env) bool {
		if handoff {
			return !c.machines[p].Holds(it)
		}
		return c.delivered(req.key)
	}, nil)
	return req
}

// Send submits value v at process p and runs the cluster until the item
// is delivered at process dst.
func (c *ForwardingCluster[T]) Send(p, dst int, v T) error {
	req := c.SendAsync(p, dst, v)
	return req.Wait(context.Background())
}

// ForwardReport is the forwarding specification's verdict so far: every
// observed violation of the no-loss, no-duplication, and
// correct-destination clauses across all armed items. Unlike the PIF
// spec report it is available on every substrate — the checker rides the
// event stream behind a lock.
type ForwardReport struct {
	Violations []string
}

// SpecReport snapshots the specification verdict.
func (c *ForwardingCluster[T]) SpecReport() ForwardReport {
	c.chkMu.Lock()
	defer c.chkMu.Unlock()
	var r ForwardReport
	for _, v := range c.checker.Violations() {
		r.Violations = append(r.Violations, v.String())
	}
	return r
}
