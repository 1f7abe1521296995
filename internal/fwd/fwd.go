// Package fwd implements snap-stabilizing message forwarding on tree
// topologies, after Cournier, Dubois and Villain ("Faut-il tout jeter?" /
// the snap-stabilizing message forwarding line, arXiv:1107.6014 and its
// linear-chain variant arXiv:1006.3432), transposed to this repository's
// message-passing model: every item the application submits AFTER an
// arbitrary initial configuration is delivered to its destination exactly
// once, even though buffers, flags, and channels may initially hold
// arbitrary garbage.
//
// # Protocol
//
// An item travels hop by hop along the unique tree path to its
// destination. Each directed edge (p, q) runs an independent
// PIF-style handshake (the paper's flag machinery restricted to one
// neighbour): p repeatedly sends its current outgoing item with flag
// State[q], incrementing the flag only on a matching echo, and q accepts
// the item exactly when the flag first shows FlagTop-1. With channel
// capacity c and flag domain {0..2c+2}, FIFO order guarantees the
// acceptance fires on the genuine item (the same counting argument as
// PIF's Lemma 4 — see DESIGN.md §11), so one transfer moves one item
// across one edge, exactly once.
//
// The no-loss rule is backpressure: a receiver whose input buffer for the
// edge is occupied WITHHOLDS the handshake — it neither updates its
// neighbour flag nor consumes the item, so the sender keeps
// retransmitting until the buffer drains. An item is removed from the
// network only by delivering it (at its destination) or by sanitization
// (malformed endpoints, unroutable or backtracking route — which, on a
// tree, only garbage from the initial configuration can exhibit).
// Withheld edges form non-backtracking wait chains along tree paths, and
// every such chain ends at a consuming destination, so the protocol is
// deadlock-free.
//
// Duplicate suppression across transfers (a reordered stale copy of the
// previous item surfacing inside the next transfer's handshake) uses the
// last-accepted key per edge: accepting the same (src, dst, seq) twice in
// a row is recognized and dropped without an event. Sequence numbers are
// drawn by the application layer from SeqFloor upward, while corruption
// draws below it, so garbage can never impersonate a submitted item.
package fwd

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
)

// Kind is the message type of the forwarding protocol.
const Kind = "FWD"

// ItemTag marks payloads that carry a genuine forwarded item; anything
// else found at an acceptance point is initial-configuration garbage.
const ItemTag = "fwd"

// SeqFloor is the smallest sequence number the application layer may
// assign. Corruption draws sequence numbers below it (GarbageSeqBound),
// so an armed key can never collide with fabricated state.
const SeqFloor = 1 << 16

// GarbageSeqBound bounds the sequence numbers Corrupt fabricates.
const GarbageSeqBound = SeqFloor

// Item is one application message in transit: source, destination, the
// source-assigned sequence number, and an opaque body.
type Item struct {
	Src, Dst core.ProcID
	Seq      int64
	Body     []byte
}

// Key returns the item's identity for the spec checker.
func (it Item) Key() string {
	return fmt.Sprintf("p%d->p%d#%d", it.Src, it.Dst, it.Seq)
}

// slot is a one-item buffer.
type slot struct {
	item Item
	full bool
}

// Callbacks connects a forwarding instance to the application above it.
type Callbacks struct {
	// OnDeliver handles an item arriving at its destination. May be nil;
	// the EvFwdDeliver event fires regardless.
	OnDeliver func(env core.Env, from core.ProcID, it Item)
}

// Option configures a Forwarder.
type Option func(*Forwarder)

// WithCapacityBound declares the known channel capacity bound c >= 1 and
// sizes the per-edge flag domain to {0..2c+2}, exactly as pif.
func WithCapacityBound(c int) Option {
	return func(f *Forwarder) {
		if c < 1 {
			panic(fmt.Sprintf("fwd: invalid capacity bound %d", c))
		}
		f.top = uint8(2*c + 2)
	}
}

// Forwarder is one process's instance of the forwarding protocol.
// Exported fields mirror the protocol's variables; sibling packages
// (corruption, tests) manipulate raw state — that is what "arbitrary
// initial configuration" means.
type Forwarder struct {
	inst  string
	self  core.ProcID
	n     int
	top   uint8
	peers []core.ProcID // neighbours, ascending
	hops  []core.ProcID // hops[dst] = next hop toward dst, -1 for self/unreachable
	cb    Callbacks

	// Out[q] is the item currently being transferred to neighbour q.
	Out []slot
	// State[q] is the handshake flag toward q (top = idle/complete).
	State []uint8
	// Neig[q] is the last flag value received from q.
	Neig []uint8
	// In[q] is the one-item input buffer for items accepted from q and
	// awaiting forwarding; while it is full, the handshake from q is
	// withheld.
	In []slot
	// LastKey[q] is the identity of the item most recently accepted from
	// q, suppressing stale re-acceptance across consecutive transfers.
	LastKey []Item
	// Local is the application submission queue (FIFO).
	Local []Item
}

var (
	_ core.Machine     = (*Forwarder)(nil)
	_ core.Snapshotter = (*Forwarder)(nil)
	_ core.Corruptible = (*Forwarder)(nil)
	_ core.Garbler     = (*Forwarder)(nil)
)

// New returns a forwarding machine for process self of n, with the given
// neighbour set and next-hop row (hops[dst] is the neighbour on the path
// to dst, -1 for dst = self; a tree topology's NextHops supplies it).
func New(inst string, self core.ProcID, n int, peers, hops []core.ProcID, cb Callbacks, opts ...Option) *Forwarder {
	if n < 2 {
		panic(fmt.Sprintf("fwd: need n >= 2, got %d", n))
	}
	if len(hops) != n {
		panic(fmt.Sprintf("fwd: next-hop row of %d entries for n = %d", len(hops), n))
	}
	f := &Forwarder{
		inst:    inst,
		self:    self,
		n:       n,
		top:     4, // c = 1, as pif
		peers:   append([]core.ProcID(nil), peers...),
		hops:    append([]core.ProcID(nil), hops...),
		cb:      cb,
		Out:     make([]slot, n),
		State:   make([]uint8, n),
		Neig:    make([]uint8, n),
		In:      make([]slot, n),
		LastKey: make([]Item, n),
	}
	for _, opt := range opts {
		opt(f)
	}
	// Idle edges park at top so nothing handshakes until an item exists.
	for _, q := range f.peers {
		f.State[q] = f.top
	}
	return f
}

// Instance returns the protocol instance ID.
func (f *Forwarder) Instance() string { return f.inst }

// Self returns the owning process.
func (f *Forwarder) Self() core.ProcID { return f.self }

// FlagTop returns the top of the per-edge flag domain.
func (f *Forwarder) FlagTop() uint8 { return f.top }

// SetCallbacks replaces the application callbacks.
func (f *Forwarder) SetCallbacks(cb Callbacks) { f.cb = cb }

// isPeer reports whether q is a neighbour.
func (f *Forwarder) isPeer(q core.ProcID) bool {
	for _, p := range f.peers {
		if p == q {
			return true
		}
	}
	return false
}

// Submit hands an item to the protocol for routing. Items destined to
// self are delivered immediately. It panics on an endpoint outside the
// system — the application layer validates destinations.
func (f *Forwarder) Submit(env core.Env, it Item) {
	if it.Dst < 0 || int(it.Dst) >= f.n {
		panic(fmt.Sprintf("fwd: destination %d outside [0,%d)", it.Dst, f.n))
	}
	env.Emit(core.Event{Kind: core.EvRequest, Peer: -1, Instance: f.inst, Note: it.Key()})
	if it.Dst == f.self {
		f.deliver(env, f.self, it)
		return
	}
	f.Local = append(f.Local, it)
}

// deliver hands an item to the application.
func (f *Forwarder) deliver(env core.Env, from core.ProcID, it Item) {
	env.Emit(core.Event{
		Kind:     core.EvFwdDeliver,
		Peer:     from,
		Instance: f.inst,
		Msg:      itemMessage(f.inst, it),
		Note:     it.Key(),
	})
	if f.cb.OnDeliver != nil {
		f.cb.OnDeliver(env, from, it)
	}
}

// discard sanitizes an item out of the network.
func (f *Forwarder) discard(env core.Env, it Item, why string) {
	env.Emit(core.Event{
		Kind:     core.EvFwdDiscard,
		Peer:     -1,
		Instance: f.inst,
		Msg:      itemMessage(f.inst, it),
		Note:     why,
	})
}

// routable classifies an item held at this process: the next hop to move
// it along, or deliver/discard verdicts.
func (f *Forwarder) nextHop(it Item) (core.ProcID, bool) {
	if it.Dst < 0 || int(it.Dst) >= f.n || it.Src < 0 || int(it.Src) >= f.n {
		return -1, false
	}
	h := f.hops[it.Dst]
	if h < 0 {
		return -1, false
	}
	return h, true
}

// itemMessage encodes an item as the wire message body (shared by sends
// and the fwd events the spec checker reads).
func itemMessage(inst string, it Item) core.Message {
	return core.Message{
		Instance: inst,
		Kind:     Kind,
		B:        core.Payload{Tag: ItemTag, Num: it.Seq, Blob: it.Body},
		F:        core.Payload{Tag: "rt", Num: core.PackRoute(it.Src, it.Dst)},
	}
}

// decodeItem reads an item back out of a message; ok is false for
// anything that is not a genuine item encoding.
func decodeItem(m core.Message) (Item, bool) {
	if m.B.Tag != ItemTag {
		return Item{}, false
	}
	src, dst := core.UnpackRoute(m.F.Num)
	return Item{Src: src, Dst: dst, Seq: m.B.Num, Body: m.B.Blob}, true
}

// sanitize clears impossible local state: parked flags on empty slots,
// and buffered items that are deliverable here or unroutable. Only the
// arbitrary initial configuration produces such states; sanitizing them
// eagerly keeps the invariant "every buffered item has a forward route".
func (f *Forwarder) sanitize(env core.Env) bool {
	fired := false
	for _, q := range f.peers {
		if !f.Out[q].full && f.State[q] != f.top {
			f.State[q] = f.top
			fired = true
		}
		if f.Out[q].full {
			if h, ok := f.nextHop(f.Out[q].item); !ok || h != q {
				// Mid-transfer toward the wrong neighbour or unroutable:
				// fabricated state. (A genuine transfer always targets
				// the item's next hop.)
				if it := f.Out[q].item; it.Dst == f.self {
					f.deliver(env, q, it)
				} else if !ok {
					f.discard(env, f.Out[q].item, "unroutable out slot")
				} else {
					// Routable but aimed at the wrong edge: re-queue it
					// locally rather than destroy it.
					f.Local = append(f.Local, f.Out[q].item)
				}
				f.Out[q] = slot{}
				f.State[q] = f.top
				fired = true
			} else if f.State[q] == f.top {
				// A full slot under a completed-transfer flag is fabricated:
				// a genuine completion clears the slot in the same action
				// that reaches top. Restart the transfer from flag 0 rather
				// than guess whether the item ever crossed — re-acceptance
				// of an item the neighbour already forwarded is suppressed
				// by its LastKey.
				f.State[q] = 0
				fired = true
			}
		}
		if f.In[q].full {
			it := f.In[q].item
			if it.Dst == f.self {
				f.deliver(env, q, it)
				f.In[q] = slot{}
				fired = true
			} else if h, ok := f.nextHop(it); !ok {
				f.discard(env, it, "unroutable buffered item")
				f.In[q] = slot{}
				fired = true
			} else if h == q {
				// An accepted item never routes back through the edge it
				// arrived on (the acceptance point rejects that), so this
				// is fabricated — and it must not stay: an In[q] item
				// waiting for Out[q] couples the edge's two directions,
				// and two such items close a withhold cycle (deadlock).
				f.discard(env, it, "backtracking buffered item")
				f.In[q] = slot{}
				fired = true
			}
		}
	}
	return fired
}

// pick fills Out[q] with the next item routed through q, if any: the
// local queue first (FIFO), then the input buffers in ascending neighbour
// order.
func (f *Forwarder) pick(q core.ProcID) bool {
	for i, it := range f.Local {
		if h, ok := f.nextHop(it); ok && h == q {
			f.Local = append(f.Local[:i], f.Local[i+1:]...)
			f.Out[q] = slot{item: it, full: true}
			f.State[q] = 0
			return true
		}
	}
	for _, src := range f.peers {
		if !f.In[src].full {
			continue
		}
		if h, ok := f.nextHop(f.In[src].item); ok && h == q {
			f.Out[q] = slot{item: f.In[src].item, full: true}
			f.In[src] = slot{}
			f.State[q] = 0
			return true
		}
	}
	return false
}

// send transmits the current transfer state toward q.
func (f *Forwarder) send(env core.Env, q core.ProcID) {
	m := itemMessage(f.inst, f.Out[q].item)
	if !f.Out[q].full {
		m.B, m.F = core.Payload{}, core.Payload{}
	}
	m.State = f.State[q]
	m.Echo = f.Neig[q]
	env.Send(q, m)
}

// Step runs the internal actions: sanitize fabricated state, start
// transfers for idle edges with routable items, retransmit active
// transfers.
func (f *Forwarder) Step(env core.Env) bool {
	fired := f.sanitize(env)
	for _, q := range f.peers {
		if !f.Out[q].full {
			if !f.pick(q) {
				continue
			}
			fired = true
		}
		if f.State[q] < f.top {
			f.send(env, q)
			fired = true
		}
	}
	return fired
}

// Deliver runs the receive action for a message from q: the acceptance
// point of the incoming transfer (with the no-loss withhold rule and
// stale-duplicate suppression), the echo-driven progress of the outgoing
// transfer, and the reply.
func (f *Forwarder) Deliver(env core.Env, from core.ProcID, m core.Message) {
	if m.Kind != Kind || !f.isPeer(from) {
		// Garbage, or not a neighbour: consumed, no effect.
		return
	}
	q := from
	qState := m.State
	if qState > f.top {
		qState = f.top // clamp out-of-domain garbage, as pif
	}
	echo := m.Echo

	// Acceptance point: the incoming transfer's flag first shows top-1.
	if f.Neig[q] != f.top-1 && qState == f.top-1 {
		it, ok := decodeItem(m)
		switch {
		case !ok:
			// Not an item at all: fabricated handshake state. Sanitized;
			// nothing real is lost.
			f.discard(env, Item{}, "malformed item")
		case sameKey(it, f.LastKey[q]):
			// The item most recently accepted on this edge, resurfacing
			// through a stale or duplicated flag message: already
			// forwarded, drop the copy silently.
		case it.Dst == f.self:
			f.accept(q, it)
			f.deliver(env, q, it)
		default:
			h, ok := f.nextHop(it)
			if !ok || h == q {
				// Unroutable, or routed straight back where it came from:
				// on a tree only garbage does this.
				f.discard(env, it, "unroutable or backtracking item")
				break
			}
			if f.In[q].full {
				// No-loss backpressure: withhold the handshake — no flag
				// update, no consumption. The sender keeps retransmitting;
				// our reply below still carries the stale Neig, which is
				// exactly the stall signal.
				goto duplex
			}
			f.accept(q, it)
			f.In[q] = slot{item: it, full: true}
		}
	}
	f.Neig[q] = qState

duplex:
	// Outgoing-transfer progress: echo-matched increment; at top the
	// transfer is complete and the edge parks.
	if f.State[q] == echo && f.State[q] < f.top {
		f.State[q]++
		if f.State[q] == f.top {
			f.Out[q] = slot{}
		}
	}

	// Answer while the incoming transfer still wants echoes.
	if qState < f.top {
		f.send(env, q)
	}
}

// accept records the edge's last-accepted key.
func (f *Forwarder) accept(q core.ProcID, it Item) {
	f.LastKey[q] = Item{Src: it.Src, Dst: it.Dst, Seq: it.Seq}
}

// sameKey compares item identities — (src, dst, seq); bodies are opaque.
func sameKey(a, b Item) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.Seq == b.Seq
}

// Holds reports whether the process still holds an item with it's key:
// queued locally, in an input buffer, or in an unacknowledged transfer.
// Once false for a submitted item, the next hop has accepted it and the
// protocol's no-loss guarantee carries it the rest of the way.
func (f *Forwarder) Holds(it Item) bool {
	for _, x := range f.Local {
		if sameKey(x, it) {
			return true
		}
	}
	for _, q := range f.peers {
		if f.Out[q].full && sameKey(f.Out[q].item, it) {
			return true
		}
		if f.In[q].full && sameKey(f.In[q].item, it) {
			return true
		}
	}
	return false
}

// AppendState appends a canonical encoding of the machine state.
func (f *Forwarder) AppendState(dst []byte) []byte {
	dst = append(dst, 'F')
	appendItem := func(dst []byte, it Item, full bool) []byte {
		b := byte(0)
		if full {
			b = 1
		}
		dst = append(dst, b)
		dst = core.AppendPayload(dst, core.Payload{Tag: ItemTag, Num: it.Seq, Blob: it.Body})
		dst = core.AppendPayload(dst, core.Payload{Num: core.PackRoute(it.Src, it.Dst)})
		return dst
	}
	for _, q := range f.peers {
		dst = append(dst, f.State[q], f.Neig[q])
		dst = appendItem(dst, f.Out[q].item, f.Out[q].full)
		dst = appendItem(dst, f.In[q].item, f.In[q].full)
		dst = appendItem(dst, f.LastKey[q], true)
	}
	for _, it := range f.Local {
		dst = appendItem(dst, it, true)
	}
	return dst
}

// garbageItem draws an arbitrary item: in-range endpoints, a sequence
// number below SeqFloor (application sequence numbers start there, so
// fabricated items can never impersonate submitted ones), and a short
// opaque body.
func garbageItem(r core.Rand, n int) Item {
	it := Item{
		Src: core.ProcID(r.Intn(n)),
		Dst: core.ProcID(r.Intn(n)),
		Seq: int64(r.Intn(GarbageSeqBound)),
	}
	if body := r.Intn(4); body > 0 {
		it.Body = make([]byte, body)
		for i := range it.Body {
			it.Body[i] = byte(r.Uint64())
		}
	}
	return it
}

// Corrupt overwrites every protocol variable with arbitrary values from
// its domain. The local submission queue belongs to the application side
// of the interface and stays — the specification is about items
// submitted, and corrupting the submission queue would un-submit them.
func (f *Forwarder) Corrupt(r core.Rand) {
	for _, q := range f.peers {
		f.State[q] = uint8(r.Intn(int(f.top) + 1))
		f.Neig[q] = uint8(r.Intn(int(f.top) + 1))
		f.Out[q] = slot{}
		if r.Bool() {
			f.Out[q] = slot{item: garbageItem(r, f.n), full: true}
		}
		f.In[q] = slot{}
		if r.Bool() {
			f.In[q] = slot{item: garbageItem(r, f.n), full: true}
		}
		f.LastKey[q] = garbageItem(r, f.n)
		f.LastKey[q].Body = nil
	}
}

// Garbage draws a random FWD message of this instance carrying an
// arbitrary item, with flags in {0..top}: the garbage an arbitrary initial
// configuration leaves in the instance's channels.
func (f *Forwarder) Garbage(r core.Rand) core.Message {
	m := itemMessage(f.inst, garbageItem(r, f.n))
	m.State = uint8(r.Intn(int(f.top) + 1))
	m.Echo = uint8(r.Intn(int(f.top) + 1))
	return m
}
