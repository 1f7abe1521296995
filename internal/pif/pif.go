// Package pif implements Protocol PIF (Algorithm 1 of the paper): the
// first snap-stabilizing Propagation of Information with Feedback for
// message-passing systems with bounded-capacity channels.
//
// # The algorithm
//
// Per neighbour q, the initiator p keeps a handshake flag State[q] and the
// last flag value received from q, NeigState[q]. While a computation is in
// progress (Request = In), p repeatedly sends
//
//	<PIF, B-Mes, F-Mes[q], State[q], NeigState[q]>
//
// and increments State[q] only when it receives a message from q echoing
// State[q] back. With channel capacity c, an arbitrary initial
// configuration holds at most c stale messages in each direction plus one
// stale NeigState at q — at most 2c+1 stale echo tokens — so after
// FlagTop = 2c+2 increments the last echo necessarily answers a message p
// sent after its start. The paper fixes c = 1, giving the flag domain
// {0..4} (Figure 1 is the worst case, where garbage yields the first three
// increments). This implementation keeps c as a parameter and instantiates
// the paper's protocol at c = 1; the reduction "known capacity c ⇒ flag
// domain {0..2c+2}" is the extension the paper calls straightforward, and
// experiment E10 validates it empirically.
//
// The q-side behaviour is part of the same action A3: q accepts the
// broadcast (generates receive-brd, exactly once per computation) when the
// incoming flag reaches FlagTop-1, and answers every message whose flag is
// below FlagTop.
//
// # Events
//
// The machine emits EvStart at action A1, EvDecide at termination in A2,
// and EvRecvBrd / EvRecvFck at the corresponding acceptance points of A3,
// so specification checkers can verify Specification 1 externally.
package pif

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
)

// Kind is the single message type used by the protocol (the paper's PIF
// messages).
const Kind = "PIF"

// Callbacks connects a PIF instance to the application layered above it
// (IDL, mutual exclusion, or user code).
type Callbacks struct {
	// OnBroadcast handles a "receive-brd<B> from q" event and returns the
	// feedback value to store into F-Mes[q]. A nil OnBroadcast leaves
	// F-Mes[q] unchanged.
	OnBroadcast func(env core.Env, from core.ProcID, b core.Payload) core.Payload
	// OnFeedback handles a "receive-fck<F> from q" event. May be nil.
	OnFeedback func(env core.Env, from core.ProcID, f core.Payload)
}

// Option configures a PIF machine.
type Option func(*PIF)

// WithCapacityBound declares the known channel capacity bound c >= 1 and
// sizes the flag domain to {0..2c+2} accordingly. Default is the paper's
// c = 1 (flag domain {0..4}).
func WithCapacityBound(c int) Option {
	return func(p *PIF) {
		if c < 1 {
			panic(fmt.Sprintf("pif: invalid capacity bound %d", c))
		}
		p.top = uint8(2*c + 2)
	}
}

// WithFlagTop overrides the flag-domain top directly. It exists for the
// ablation experiments (E9): tops below 2c+2 make the protocol unsound,
// which the model checker then demonstrates. Production code should use
// WithCapacityBound.
func WithFlagTop(top int) Option {
	return func(p *PIF) {
		if top < 1 || top > 250 {
			panic(fmt.Sprintf("pif: invalid flag top %d", top))
		}
		p.top = uint8(top)
	}
}

// WithPeers restricts the machine to a set of communication neighbours:
// the handshake runs only toward peers, the broadcast is accepted only
// from peers, and termination requires State[q] = top exactly for the
// peers. The default (nil) is every other process — the paper's complete
// graph. The slice is copied and sorted ascending, so on the complete
// graph every loop visits exactly the processes the unrestricted machine
// visits, in the same order: executions are byte-identical.
func WithPeers(peers []core.ProcID) Option {
	return func(p *PIF) {
		out := make([]core.ProcID, len(peers))
		copy(out, peers)
		sortProcIDs(out)
		for i, q := range out {
			if q < 0 || int(q) >= p.n || q == p.self {
				panic(fmt.Sprintf("pif: peer %d invalid for process %d of %d", q, p.self, p.n))
			}
			if i > 0 && out[i-1] == q {
				panic(fmt.Sprintf("pif: duplicate peer %d", q))
			}
		}
		p.peers = out
	}
}

func sortProcIDs(s []core.ProcID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// WithGarbageBlobs makes Corrupt and Garbage draw opaque payload bodies
// of up to max random bytes alongside the structured garbage, realizing
// arbitrary initial configurations — variables and channels alike — for
// typed (blob-carrying) deployments. The default max of 0 draws nothing
// extra, so legacy corruption consumes exactly the random stream of
// earlier revisions — deterministic-sim experiment output is unchanged.
func WithGarbageBlobs(max int) Option {
	return func(p *PIF) {
		if max < 0 {
			panic(fmt.Sprintf("pif: invalid garbage blob bound %d", max))
		}
		p.blobMax = max
	}
}

// PIF is one process's instance of Protocol PIF. Exported fields mirror
// the paper's variables; they are exported because sibling packages
// (checkers, corruption, composed protocols) manipulate raw protocol state
// — exactly what "arbitrary initial configuration" means.
type PIF struct {
	inst    string
	self    core.ProcID
	n       int
	top     uint8
	blobMax int
	peers   []core.ProcID // sorted communication neighbours
	cb      Callbacks

	// Request is the input/output variable driving computations
	// (Wait -> In -> Done).
	Request core.ReqState
	// BMes is the data to broadcast (input variable B-Mes).
	BMes core.Payload
	// FMes[q] is the feedback value for neighbour q (input variable
	// F-Mes[q]); entry self is unused.
	FMes []core.Payload
	// State[q] is the handshake flag toward q; entry self is unused.
	State []uint8
	// Neig[q] is the last flag value received from q (NeigState[q]).
	Neig []uint8
}

var (
	_ core.Machine     = (*PIF)(nil)
	_ core.Snapshotter = (*PIF)(nil)
	_ core.Corruptible = (*PIF)(nil)
	_ core.Garbler     = (*PIF)(nil)
)

// New returns a PIF machine for process self in an n-process system,
// publishing on protocol instance inst. The zero-value state corresponds
// to the clean configuration (Request = Wait is NOT assumed; Request
// starts Done so nothing runs until invoked or corrupted).
func New(inst string, self core.ProcID, n int, cb Callbacks, opts ...Option) *PIF {
	if n < 2 {
		panic(fmt.Sprintf("pif: need n >= 2, got %d", n))
	}
	if self < 0 || int(self) >= n {
		panic(fmt.Sprintf("pif: self %d outside [0,%d)", self, n))
	}
	p := &PIF{
		inst:    inst,
		self:    self,
		n:       n,
		top:     4, // c = 1, the paper's setting
		cb:      cb,
		Request: core.Done,
		FMes:    make([]core.Payload, n),
		State:   make([]uint8, n),
		Neig:    make([]uint8, n),
	}
	for _, opt := range opts {
		opt(p)
	}
	if p.peers == nil {
		p.peers = make([]core.ProcID, 0, n-1)
		for q := 0; q < n; q++ {
			if q != int(self) {
				p.peers = append(p.peers, core.ProcID(q))
			}
		}
	}
	return p
}

// Instance returns the protocol instance ID.
func (p *PIF) Instance() string { return p.inst }

// Callbacks returns the current application callbacks.
func (p *PIF) Callbacks() Callbacks { return p.cb }

// SetCallbacks replaces the application callbacks; tools and tests use it
// to attach observation hooks after construction.
func (p *PIF) SetCallbacks(cb Callbacks) { p.cb = cb }

// FlagTop returns the top of the flag domain (4 for the paper's c = 1).
func (p *PIF) FlagTop() uint8 { return p.top }

// Self returns the owning process.
func (p *PIF) Self() core.ProcID { return p.self }

// Peers returns the machine's communication neighbours in ascending
// order. The slice is shared and must not be mutated.
func (p *PIF) Peers() []core.ProcID { return p.peers }

// isPeer reports whether q is a communication neighbour (binary search
// over the sorted peer list).
func (p *PIF) isPeer(q core.ProcID) bool {
	lo, hi := 0, len(p.peers)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.peers[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(p.peers) && p.peers[lo] == q
}

// Invoke submits an external request to broadcast b. Following the model
// (§4.1), the application must not re-request before the previous
// computation decided; Invoke reports false, without effect, if
// Request != Done.
func (p *PIF) Invoke(env core.Env, b core.Payload) bool {
	if p.Request != core.Done {
		return false
	}
	p.BMes = b
	p.Request = core.Wait
	env.Emit(core.Event{Kind: core.EvRequest, Peer: -1, Instance: p.inst, Note: b.String()})
	return true
}

// Reset unconditionally re-requests a broadcast of b, abandoning any
// computation in progress. Composed protocols (Algorithm 3's phase
// machine) use it; external applications should use Invoke.
func (p *PIF) Reset(b core.Payload) {
	p.BMes = b
	p.Request = core.Wait
}

// Done reports whether no computation is requested or in progress.
func (p *PIF) Done() bool { return p.Request == core.Done }

// Step runs the internal actions A1 and A2 in text order.
func (p *PIF) Step(env core.Env) bool {
	fired := false

	// A1 :: Request = Wait -> start: Request <- In; forall q: State[q] <- 0.
	if p.Request == core.Wait {
		p.Request = core.In
		for _, q := range p.peers {
			p.State[q] = 0
		}
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: p.inst, Note: p.BMes.String()})
		fired = true
	}

	// A2 :: Request = In -> terminate or (re)transmit.
	if p.Request == core.In {
		if p.allTop() {
			p.Request = core.Done
			env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: p.inst, Note: p.BMes.String()})
		} else {
			for _, q := range p.peers {
				if p.State[q] == p.top {
					continue
				}
				env.Send(q, core.Message{
					Instance: p.inst,
					Kind:     Kind,
					B:        p.BMes,
					F:        p.FMes[q],
					State:    p.State[q],
					Echo:     p.Neig[q],
				})
			}
		}
		fired = true
	}

	return fired
}

// Deliver runs the receive action A3 for a message from q.
//
// The incoming message fields are, in the paper's notation at receiver p:
// m.State = qState (the sender's flag toward p) and m.Echo = pState (the
// sender's NeigState, i.e. the echo of p's own flag).
func (p *PIF) Deliver(env core.Env, from core.ProcID, m core.Message) {
	if m.Kind != Kind || !p.isPeer(from) {
		// Garbage from the initial configuration, or a sender that is not
		// a communication neighbour: consumed, no effect.
		return
	}
	q := int(from)

	// Clamp out-of-domain flag values from garbage messages. A value
	// above top can never equal State[q] (<= top) nor top-1 except when
	// clamped; clamping to top keeps it inert in every comparison below,
	// matching the model where garbage fields range over the declared
	// domain.
	qState := m.State
	if qState > p.top {
		qState = p.top
	}
	echo := m.Echo

	// receive-brd: accepted once per incoming broadcast, when the
	// sender's flag first shows top-1.
	if p.Neig[q] != p.top-1 && qState == p.top-1 {
		env.Emit(core.Event{Kind: core.EvRecvBrd, Peer: from, Instance: p.inst, Msg: m, Note: m.B.String()})
		if p.cb.OnBroadcast != nil {
			p.FMes[q] = p.cb.OnBroadcast(env, from, m.B)
		}
	}

	p.Neig[q] = qState

	// Echo-matched increment; at top, the feedback is accepted.
	if p.State[q] == echo && p.State[q] < p.top {
		p.State[q]++
		if p.State[q] == p.top {
			env.Emit(core.Event{Kind: core.EvRecvFck, Peer: from, Instance: p.inst, Msg: m, Note: m.F.String()})
			if p.cb.OnFeedback != nil {
				p.cb.OnFeedback(env, from, m.F)
			}
		}
	}

	// Answer the sender while it still waits for echoes.
	if qState < p.top {
		env.Send(from, core.Message{
			Instance: p.inst,
			Kind:     Kind,
			B:        p.BMes,
			F:        p.FMes[q],
			State:    p.State[q],
			Echo:     p.Neig[q],
		})
	}
}

func (p *PIF) allTop() bool {
	for _, q := range p.peers {
		if p.State[q] != p.top {
			return false
		}
	}
	return true
}

// AppendState appends a canonical encoding of the machine state.
func (p *PIF) AppendState(dst []byte) []byte {
	dst = append(dst, 'P', byte(p.Request))
	dst = core.AppendPayload(dst, p.BMes)
	for _, q := range p.peers {
		dst = append(dst, p.State[q], p.Neig[q])
		dst = core.AppendPayload(dst, p.FMes[q])
	}
	return dst
}

// Corrupt overwrites every variable with uniformly random values from its
// domain, realizing an arbitrary initial configuration. Constants (n,
// self, instance, flag top) are untouched, as in the model. Machines
// built WithGarbageBlobs additionally draw random payload bodies.
func (p *PIF) Corrupt(r core.Rand) {
	p.Request = core.ReqState(r.Intn(core.NumReqStates))
	p.BMes = GarbagePayloadBlob(r, p.blobMax)
	for _, q := range p.peers {
		p.State[q] = uint8(r.Intn(int(p.top) + 1))
		p.Neig[q] = uint8(r.Intn(int(p.top) + 1))
		p.FMes[q] = GarbagePayloadBlob(r, p.blobMax)
	}
}

// GarbagePayload draws a random payload, used for corrupted variables and
// garbage channel contents. The tag marks provenance so Property 1 tests
// can recognize initial-configuration data.
func GarbagePayload(r core.Rand) core.Payload {
	return core.Payload{Tag: "garbage", Num: int64(r.Intn(1 << 16))}
}

// GarbagePayloadBlob draws a random payload carrying an opaque body of up
// to maxBlob random bytes. With maxBlob = 0 it draws exactly as
// GarbagePayload — no extra randomness is consumed, so legacy corruption
// streams replay unchanged.
func GarbagePayloadBlob(r core.Rand, maxBlob int) core.Payload {
	p := GarbagePayload(r)
	if maxBlob > 0 {
		blob := make([]byte, r.Intn(maxBlob+1))
		for i := range blob {
			blob[i] = byte(r.Uint64())
		}
		p.Blob = blob
	}
	return p
}

// Garbage draws a random PIF message of this instance with flags in
// {0..top} and payload bodies bounded as WithGarbageBlobs bounds them: the
// garbage an arbitrary initial configuration leaves in the instance's
// channels.
func (p *PIF) Garbage(r core.Rand) core.Message {
	return core.Message{
		Instance: p.inst,
		Kind:     Kind,
		B:        GarbagePayloadBlob(r, p.blobMax),
		F:        GarbagePayloadBlob(r, p.blobMax),
		State:    uint8(r.Intn(int(p.top) + 1)),
		Echo:     uint8(r.Intn(int(p.top) + 1)),
	}
}
