// Package check is an explicit-state model checker for the two-process
// instance of Protocol PIF. It complements the randomized adversarial
// tests with exhaustive verification on n = 2 — the per-neighbour
// handshake of Algorithm 1 is independent per pair, so the two-process
// system is the correctness kernel of the protocol (Lemma 4 is stated for
// one pair).
//
// Two analyses of PIF are offered, on two sound abstractions (window.go
// adds a third, of the link window the engine runs):
//
//   - Safety: from EVERY abstract initial configuration in which the
//     initiator p has a pending request (arbitrary flags, arbitrary peer
//     state, arbitrary channel garbage), no execution lets p's started
//     computation accept a feedback that was not causally generated for
//     its broadcast. Payloads are abstracted to one freshness bit with
//     exact propagation: "fresh" feedback exists only after the peer's
//     receive-brd of the fresh broadcast — so the check subsumes both the
//     Correctness clause (the peer received m) and the Decision clause
//     (only genuine acknowledgments are used) of Specification 1 in their
//     causal form (Lemmas 4–6).
//
//   - Termination: on the payload-free abstraction with both processes
//     cycling (external re-requests allowed at both), every reachable
//     configuration can reach the termination of each process's current
//     computation. On a finite transition system, reachability of the
//     target from everywhere implies almost-sure termination under any
//     memoryless fair scheduler — the paper's fairness assumptions.
//
// The checker runs the REAL protocol machines (internal/pif) inside a
// packed-state exploration loop: configurations are densely encoded
// integers, decoded into reusable machine instances, stepped, and
// re-encoded. There is no second implementation of the protocol to drift
// from the shipped one, and the flag-domain ablation (experiment E9) is a
// one-parameter change.
package check

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// Fixed abstract payloads. Fresh values are those causally produced inside
// the checked computation; everything else is stale.
var (
	freshB = core.Payload{Tag: "m!"}
	freshF = core.Payload{Tag: "ack!"}
	staleB = core.Payload{Tag: "stale"}
	staleF = core.Payload{Tag: "stale"}
)

// Options selects the checked system.
type Options struct {
	// FlagTop is the top of the handshake flag domain. 4 is the paper's
	// protocol; lower values are the E9 ablation and are expected to
	// fail. Default 4.
	FlagTop int
	// MaxStates aborts the analysis if the abstract state space exceeds
	// this bound (default 200M).
	MaxStates uint64
	// TraceViolation records parent pointers so a counter-example trace
	// can be reconstructed. Costs memory proportional to the explored
	// set; intended for the small ablated domains.
	TraceViolation bool
}

func (o Options) withDefaults() Options {
	if o.FlagTop == 0 {
		o.FlagTop = 4
	}
	if o.MaxStates == 0 {
		o.MaxStates = 200_000_000
	}
	return o
}

// Result reports a safety analysis.
type Result struct {
	// Exhaustive is true when the full reachable space was explored.
	Exhaustive bool
	// Explored counts distinct reachable configurations.
	Explored int
	// InitialConfigs counts the enumerated initial configurations.
	InitialConfigs int
	// Violation describes the first violation found, nil if none.
	Violation *ViolationInfo
}

// ViolationInfo describes a counter-example.
type ViolationInfo struct {
	// Description says what went wrong.
	Description string
	// Config renders the violating configuration.
	Config string
	// Trace lists the steps from an initial configuration, when parent
	// tracking was enabled.
	Trace []string
	// Ops is the machine-readable transition sequence from Init to the
	// violation (names from opNames), when parent tracking was enabled.
	// Replaying Ops from Init on the real simulator reproduces the attack
	// — the tests do exactly that.
	Ops []string
	// Init is the structured initial configuration of the counter-example,
	// when parent tracking was enabled.
	Init *InitConf
}

// InitConf is a structured abstract initial configuration, exported so
// counter-examples can be replayed outside the checker.
type InitConf struct {
	// PReq/PS/PN are the initiator's Request, State[q], NeigState[q].
	PReq, PS, PN uint8
	// QReq/QS/QN are the peer's Request, State[p], NeigState[p].
	QReq, QS, QN uint8
	// PQ and QP are the single channel slots (nil = empty). Initial
	// messages are stale by definition.
	PQ, QP *MsgConf
}

// MsgConf is one in-transit message of a counter-example configuration.
type MsgConf struct {
	// S and E are the flag and echo fields.
	S, E uint8
}

// The seven transition kinds.
const (
	opActP   = iota // activate the initiator p
	opActQ          // activate the peer q
	opExtQ          // external re-request at q (and at p in termination mode)
	opDelPQ         // deliver the head of channel p->q
	opDelQP         // deliver the head of channel q->p
	opLosePQ        // lose the head of channel p->q
	opLoseQP        // lose the head of channel q->p
	numOps
)

var opNames = [numOps]string{"activate-p", "activate-q", "ext-request", "deliver-p->q", "deliver-q->p", "lose-p->q", "lose-q->p"}

// conf is a decoded configuration. Channels are capacity-1 (the paper's
// regime): a slot is either empty or holds one message code.
type conf struct {
	pReq, pS, pN uint8
	qReq, qS, qN uint8
	qF           bool // q's F-Mes[p] is fresh
	pqFull       bool
	pqS, pqE     uint8
	pqB          bool // in-transit p->q message carries the fresh broadcast
	qpFull       bool
	qpS, qpE     uint8
	qpF          bool // in-transit q->p message carries fresh feedback
}

// explorer holds the reusable machinery for one analysis.
type explorer struct {
	top    uint8
	vals   uint64 // top+1, the flag-domain cardinality
	safety bool   // safety mode (freshness bits, p absorbing at Done)

	pCard, qCard, chCard uint64
	total                uint64

	p, q      *pif.PIF
	cur       conf
	violated  bool
	violation string
}

func newExplorer(top int, safety bool) *explorer {
	e := &explorer{top: uint8(top), vals: uint64(top + 1), safety: safety}
	e.pCard = 3 * e.vals * e.vals
	e.qCard = 3 * e.vals * e.vals
	msgCard := e.vals * e.vals
	if safety {
		e.qCard *= 2 // q's F freshness bit
		msgCard *= 2 // per-direction freshness bit
	}
	e.chCard = 1 + msgCard
	e.total = e.pCard * e.qCard * e.chCard * e.chCard

	e.p = pif.New("pif", 0, 2, pif.Callbacks{
		OnBroadcast: func(core.Env, core.ProcID, core.Payload) core.Payload { return staleF },
		OnFeedback: func(_ core.Env, _ core.ProcID, f core.Payload) {
			if e.safety && e.p.Request == core.In && !f.Equal(freshF) {
				e.violated = true
				e.violation = fmt.Sprintf("started computation accepted stale feedback %v", f)
			}
		},
	}, pif.WithFlagTop(top))
	e.q = pif.New("pif", 1, 2, pif.Callbacks{
		OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
			if b.Equal(freshB) {
				return freshF
			}
			return staleF
		},
	}, pif.WithFlagTop(top))
	return e
}

// encode packs the working configuration into a dense index.
func (e *explorer) encode(c *conf) uint64 {
	v := e.vals
	pIdx := (uint64(c.pReq)*v+uint64(c.pS))*v + uint64(c.pN)
	qIdx := (uint64(c.qReq)*v+uint64(c.qS))*v + uint64(c.qN)
	if e.safety {
		qIdx = qIdx*2 + b2u(c.qF)
	}
	pqIdx, qpIdx := e.slot(c.pqFull, c.pqS, c.pqE, c.pqB), e.slot(c.qpFull, c.qpS, c.qpE, c.qpF)
	return ((pIdx*e.qCard+qIdx)*e.chCard+pqIdx)*e.chCard + qpIdx
}

// slot encodes one channel slot: 0 if empty, else 1 + its message's
// flags and, in safety mode, its freshness bit. unslot decodes it.
func (e *explorer) slot(full bool, s, f uint8, fresh bool) uint64 {
	if !full {
		return 0
	}
	m := uint64(s)*e.vals + uint64(f)
	if e.safety {
		m = m*2 + b2u(fresh)
	}
	return 1 + m
}

func (e *explorer) unslot(idx uint64) (full bool, s, f uint8, fresh bool) {
	if idx == 0 {
		return false, 0, 0, false
	}
	m := idx - 1
	if e.safety {
		fresh, m = m&1 == 1, m/2
	}
	return true, uint8(m / e.vals), uint8(m % e.vals), fresh
}

// decode unpacks index idx into the working configuration.
func (e *explorer) decode(idx uint64, c *conf) {
	v := e.vals
	qpIdx := idx % e.chCard
	idx /= e.chCard
	pqIdx := idx % e.chCard
	idx /= e.chCard
	qIdx := idx % e.qCard
	pIdx := idx / e.qCard

	c.pN = uint8(pIdx % v)
	pIdx /= v
	c.pS = uint8(pIdx % v)
	c.pReq = uint8(pIdx / v)

	if e.safety {
		c.qF = qIdx&1 == 1
		qIdx /= 2
	} else {
		c.qF = false
	}
	c.qN = uint8(qIdx % v)
	qIdx /= v
	c.qS = uint8(qIdx % v)
	c.qReq = uint8(qIdx / v)

	c.pqFull, c.pqS, c.pqE, c.pqB = e.unslot(pqIdx)
	c.qpFull, c.qpS, c.qpE, c.qpF = e.unslot(qpIdx)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// restore loads the working configuration into the machines.
func (e *explorer) restore(c *conf) {
	p, q := e.p, e.q
	p.Request = core.ReqState(c.pReq)
	p.State[1] = c.pS
	p.Neig[1] = c.pN
	p.BMes = freshB
	p.FMes[1] = staleF
	q.Request = core.ReqState(c.qReq)
	q.State[0] = c.qS
	q.Neig[0] = c.qN
	q.BMes = staleB
	if c.qF {
		q.FMes[0] = freshF
	} else {
		q.FMes[0] = staleF
	}
}

// capture reads the machines back into the working configuration.
func (e *explorer) capture(c *conf) {
	p, q := e.p, e.q
	c.pReq = uint8(p.Request)
	c.pS = p.State[1]
	c.pN = p.Neig[1]
	c.qReq = uint8(q.Request)
	c.qS = q.State[0]
	c.qN = q.Neig[0]
	c.qF = q.FMes[0].Equal(freshF)
}

// chanEnv adapts the single-slot channels to core.Env for the machines.
type chanEnv struct {
	e    *explorer
	self core.ProcID
}

func (v chanEnv) Self() core.ProcID { return v.self }
func (v chanEnv) N() int            { return 2 }
func (v chanEnv) Emit(core.Event)   {}
func (v chanEnv) Send(to core.ProcID, m core.Message) {
	c := &v.e.cur
	if v.self == 0 {
		if !c.pqFull {
			c.pqFull = true
			c.pqS, c.pqE = m.State, m.Echo
			c.pqB = m.B.Equal(freshB)
		}
		return
	}
	if !c.qpFull {
		c.qpFull = true
		c.qpS, c.qpE = m.State, m.Echo
		c.qpF = m.F.Equal(freshF)
	}
}

// apply executes one transition on the working configuration. It reports
// whether the transition is enabled (disabled transitions leave the
// configuration unchanged and yield no successor).
func (e *explorer) apply(op int) bool {
	c := &e.cur
	switch op {
	case opActP:
		if e.safety && c.pReq == uint8(core.Done) {
			return false // absorbing: the checked computation ended
		}
		e.restore(c)
		fired := e.p.Step(chanEnv{e: e, self: 0})
		e.capture(c)
		return fired
	case opActQ:
		e.restore(c)
		fired := e.q.Step(chanEnv{e: e, self: 1})
		e.capture(c)
		return fired
	case opExtQ:
		if c.qReq == uint8(core.Done) {
			c.qReq = uint8(core.Wait)
			return true
		}
		if !e.safety && c.pReq == uint8(core.Done) {
			// Termination mode: p cycles too.
			c.pReq = uint8(core.Wait)
			return true
		}
		return false
	case opDelPQ:
		if !c.pqFull {
			return false
		}
		m := core.Message{Instance: "pif", Kind: pif.Kind, State: c.pqS, Echo: c.pqE, B: staleB, F: staleF}
		if c.pqB {
			m.B = freshB
		}
		c.pqFull, c.pqS, c.pqE, c.pqB = false, 0, 0, false
		e.restore(c)
		e.q.Deliver(chanEnv{e: e, self: 1}, 0, m)
		e.capture(c)
		return true
	case opDelQP:
		if !c.qpFull {
			return false
		}
		m := core.Message{Instance: "pif", Kind: pif.Kind, State: c.qpS, Echo: c.qpE, B: staleB, F: staleF}
		if c.qpF {
			m.F = freshF
		}
		c.qpFull, c.qpS, c.qpE, c.qpF = false, 0, 0, false
		e.restore(c)
		e.p.Deliver(chanEnv{e: e, self: 0}, 1, m)
		e.capture(c)
		return true
	case opLosePQ:
		if !c.pqFull {
			return false
		}
		c.pqFull, c.pqS, c.pqE, c.pqB = false, 0, 0, false
		return true
	case opLoseQP:
		if !c.qpFull {
			return false
		}
		c.qpFull, c.qpS, c.qpE, c.qpF = false, 0, 0, false
		return true
	}
	return false
}

// render prints a configuration for humans.
func (e *explorer) render(c *conf) string {
	pq := "∅"
	if c.pqFull {
		pq = fmt.Sprintf("<s=%d e=%d B=%v>", c.pqS, c.pqE, c.pqB)
	}
	qp := "∅"
	if c.qpFull {
		qp = fmt.Sprintf("<s=%d e=%d F=%v>", c.qpS, c.qpE, c.qpF)
	}
	return fmt.Sprintf("p{Req=%v S=%d N=%d} q{Req=%v S=%d N=%d F=%v} p->q:%s q->p:%s",
		core.ReqState(c.pReq), c.pS, c.pN, core.ReqState(c.qReq), c.qS, c.qN, c.qF, pq, qp)
}
