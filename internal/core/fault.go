// Fault-injection plane: a substrate-agnostic description of adversarial
// channel and process behavior (FaultPlan) plus the machinery that applies
// it at a delivery boundary (Injector).
//
// The paper's whole claim is correct behavior from ARBITRARY initial
// configurations over channels that are FIFO and only lose. The
// deterministic simulator realizes loss through its scheduler; a
// FaultPlan adds seeded adversity — loss, and the duplication, reordering
// and delay a real network adds on top of the model — and installs the
// same way into both engines (sim at Step delivery, the concurrent engine
// at each node's mailbox boundary, on its in-memory, UDP and TCP links
// alike), so one seeded chaos scenario runs everywhere.
//
// # Composition
//
// A plan composes independent per-link policies (LinkFaults: drop,
// duplicate, reorder, delay, corrupt — which is a loss: a channel only
// loses, it never forges) with global schedules
// (PartitionWindow: messages crossing the partition are dropped while the
// window is open; CrashWindow: the process takes no actions and arriving
// messages are consumed with no effect while down, then resumes with its
// state intact — a warm restart). Policies are evaluated per in-transit
// message at the substrate's delivery boundary, in a fixed order (crash,
// partition, drop, corrupt, hold, duplicate), so the random stream a plan
// consumes is a pure function of the plan and the message sequence.
//
// # Time
//
// Schedules are expressed in abstract ticks. The deterministic simulator
// maps one tick to one scheduler step; the real-time substrates map one
// tick to FaultPlan.Unit of wall time (default 1ms) measured from engine
// start. A plan therefore carries its windows unchanged across substrates;
// only the tick length differs.
//
// # Determinism contract
//
// Every Injector draws from a private generator seeded (by the substrate)
// from rng.Mix(plan.Seed, substrate, receiver), never from the scheduler's
// stream. On the simulator the whole run — including every fault decision —
// replays exactly from (topology, options, plan). On runtime and udp the
// per-receiver decision STREAMS are reproducible, but their interleaving
// with real concurrency is not; two runs with the same plan are
// statistically, not bitwise, equivalent. A nil plan is free: no injector
// exists and the substrates' hot paths are untouched. An empty (zero-value)
// plan is installed but draws nothing and changes nothing — executions are
// byte-identical to a nil plan (pinned by tests).
package core

import (
	"sync/atomic"
	"time"
)

// LinkFaults is the fault policy of one directed link (or the plan-wide
// default): independent probabilities applied to each in-transit message
// at the delivery boundary. All rates must lie in [0, 1). The JSON tags
// are the snapd/fleetgen config shape.
type LinkFaults struct {
	// DropRate is the probability the message is dropped (link loss).
	DropRate float64 `json:"drop_rate,omitempty"`
	// DupRate is the probability the message is delivered twice.
	DupRate float64 `json:"dup_rate,omitempty"`
	// ReorderRate is the probability the message is held back and released
	// behind the next message on its link — an adjacent swap, the FIFO
	// violation the paper's channels forbid and adversarial networks
	// commit.
	ReorderRate float64 `json:"reorder_rate,omitempty"`
	// DelayRate is the probability the message is held for DelayTicks
	// ticks before delivery (released by later traffic on its link or by
	// the substrate's periodic flush).
	DelayRate float64 `json:"delay_rate,omitempty"`
	// DelayTicks is how long a delayed message is held: in scheduler
	// steps on the simulator, in FaultPlan.Unit of wall time on the
	// engine.
	DelayTicks int64 `json:"delay_ticks,omitempty"`
	// CorruptRate is the probability the message is garbled in flight and
	// discarded by the receiver's integrity check — a loss, counted in
	// FaultStats.Corrupts apart from DropRate's. The paper's adversary
	// corrupts the initial configuration (CorruptEverything); afterwards
	// its channels only lose, as a checksummed socket does, so no
	// protocol ever receives the garbage.
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
}

// active reports whether any policy can ever fire.
func (f LinkFaults) active() bool {
	return f.DropRate > 0 || f.DupRate > 0 || f.ReorderRate > 0 ||
		f.DelayRate > 0 || f.CorruptRate > 0
}

// LinkSel selects one directed physical link for a per-link override; all
// protocol instances multiplexed over the link share the policy.
type LinkSel struct {
	From, To ProcID
}

// PartitionWindow splits the system for [From, Until) ticks: every message
// crossing between GroupA and the rest is dropped at the delivery
// boundary. The window's end is the heal — no explicit action needed.
type PartitionWindow struct {
	// From and Until bound the window in ticks: active when
	// From <= now < Until.
	From, Until int64
	// GroupA is one side of the partition; every process not listed is on
	// the other side.
	GroupA []ProcID
}

// contains reports whether p is in GroupA.
func (w PartitionWindow) contains(p ProcID) bool {
	for _, q := range w.GroupA {
		if q == p {
			return true
		}
	}
	return false
}

// cuts reports whether a message from -> to crosses the open partition at
// tick now.
func (w PartitionWindow) cuts(from, to ProcID, now int64) bool {
	if now < w.From || now >= w.Until {
		return false
	}
	return w.contains(from) != w.contains(to)
}

// CrashWindow silences process Proc for [From, Until) ticks: it takes no
// internal actions and messages arriving at it are consumed with no
// effect. At Until the process resumes with its local state intact (a warm
// restart); the paper's model excludes permanent crashes, and a transient
// silence is exactly the kind of fault snap-stabilization absorbs.
type CrashWindow struct {
	Proc ProcID
	// From and Until bound the window in ticks: down when
	// From <= now < Until.
	From, Until int64
}

// FaultPlan is one complete adversarial schedule for a run. The zero value
// injects nothing. Plans are specifications: each substrate instantiates
// its own Injector(s) from the plan at construction and the plan itself is
// never mutated, so one plan value may configure several engines.
type FaultPlan struct {
	// Seed roots every random decision. Substrates derive per-injector
	// seeds from it with rng.Mix, so one scenario seed reproduces the
	// whole run (exactly on sim, stream-for-stream on runtime/udp).
	Seed uint64
	// Default applies to every directed link without an override.
	Default LinkFaults
	// Links overrides the default policy per directed physical link.
	Links map[LinkSel]LinkFaults
	// Partitions are the scheduled split-brain windows.
	Partitions []PartitionWindow
	// Crashes are the scheduled crash-restart windows.
	Crashes []CrashWindow
	// Unit is the tick length on the real-time substrates (default 1ms).
	// The deterministic simulator ignores it: one tick is one scheduler
	// step there.
	Unit time.Duration
}

// TickUnit returns the real-time tick length, defaulting to 1ms.
func (p *FaultPlan) TickUnit() time.Duration {
	if p.Unit <= 0 {
		return time.Millisecond
	}
	return p.Unit
}

// Validate reports whether every rate and window is well-formed.
func (p *FaultPlan) Validate() error {
	check := func(f LinkFaults) error {
		for _, r := range []float64{f.DropRate, f.DupRate, f.ReorderRate, f.DelayRate, f.CorruptRate} {
			if r < 0 || r >= 1 {
				return &FaultPlanError{Detail: "fault rate outside [0,1)"}
			}
		}
		if f.DelayTicks < 0 {
			return &FaultPlanError{Detail: "negative DelayTicks"}
		}
		return nil
	}
	if err := check(p.Default); err != nil {
		return err
	}
	for _, f := range p.Links {
		if err := check(f); err != nil {
			return err
		}
	}
	for _, w := range p.Partitions {
		if w.Until < w.From {
			return &FaultPlanError{Detail: "partition window ends before it starts"}
		}
	}
	for _, w := range p.Crashes {
		if w.Until < w.From {
			return &FaultPlanError{Detail: "crash window ends before it starts"}
		}
	}
	return nil
}

// ValidateTopology reports whether the plan only addresses links and
// processes that exist in t: per-link overrides must select directed
// channels along edges, and partition/crash windows must name processes
// in [0, n). A plan naming a non-edge is almost certainly a typo'd
// scenario — it would silently never fire — so substrates reject it at
// construction.
func (p *FaultPlan) ValidateTopology(t *Topology) error {
	if t == nil {
		return nil
	}
	for sel := range p.Links {
		if !t.HasEdge(sel.From, sel.To) {
			return &FaultPlanError{Detail: "link override addresses a non-edge of the topology"}
		}
	}
	for _, w := range p.Partitions {
		for _, q := range w.GroupA {
			if q < 0 || int(q) >= t.N() {
				return &FaultPlanError{Detail: "partition window names a process outside the topology"}
			}
		}
	}
	for _, w := range p.Crashes {
		if w.Proc < 0 || int(w.Proc) >= t.N() {
			return &FaultPlanError{Detail: "crash window names a process outside the topology"}
		}
	}
	return nil
}

// FaultPlanError describes an invalid plan.
type FaultPlanError struct{ Detail string }

func (e *FaultPlanError) Error() string { return "core: invalid fault plan: " + e.Detail }

// Down reports whether process q is inside a crash window at tick now.
// Pure function of the plan — safe to call from any goroutine.
func (p *FaultPlan) Down(q ProcID, now int64) bool {
	for _, w := range p.Crashes {
		if w.Proc == q && now >= w.From && now < w.Until {
			return true
		}
	}
	return false
}

// Cut reports whether a message from -> to crosses an open partition at
// tick now. Pure function of the plan — safe to call from any goroutine.
func (p *FaultPlan) Cut(from, to ProcID, now int64) bool {
	for _, w := range p.Partitions {
		if w.cuts(from, to, now) {
			return true
		}
	}
	return false
}

// linkFaults resolves the policy of the directed link from -> to.
func (p *FaultPlan) linkFaults(from, to ProcID) LinkFaults {
	if p.Links != nil {
		if f, ok := p.Links[LinkSel{From: from, To: to}]; ok {
			return f
		}
	}
	return p.Default
}

// FaultStats counts injected faults by category. Substrates surface a
// snapshot next to their native counters so injected adversity is always
// distinguishable from natural loss (sim.Stats.LinkLosses, udp mailbox
// drops).
type FaultStats struct {
	// Drops counts messages dropped by DropRate.
	Drops int64
	// Duplicates counts extra copies delivered by DupRate.
	Duplicates int64
	// Reorders counts messages held back by ReorderRate.
	Reorders int64
	// Delays counts messages held back by DelayRate.
	Delays int64
	// Corrupts counts messages garbled in flight by CorruptRate and
	// discarded — lost, like Drops, never delivered.
	Corrupts int64
	// PartitionDrops counts messages dropped crossing an open partition.
	PartitionDrops int64
	// CrashDrops counts messages consumed by a down process.
	CrashDrops int64
}

// Add accumulates o into s (for aggregating per-receiver injectors).
func (s *FaultStats) Add(o FaultStats) {
	s.Drops += o.Drops
	s.Duplicates += o.Duplicates
	s.Reorders += o.Reorders
	s.Delays += o.Delays
	s.Corrupts += o.Corrupts
	s.PartitionDrops += o.PartitionDrops
	s.CrashDrops += o.CrashDrops
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.Drops + s.Duplicates + s.Reorders + s.Delays + s.Corrupts +
		s.PartitionDrops + s.CrashDrops
}

// Fate is the injector's verdict on one in-transit message.
type Fate uint8

const (
	// FateDeliver: the message is delivered (it is the first entry of the
	// returned batch; duplication may have applied).
	FateDeliver Fate = iota
	// FateDrop: the message is lost — dropped, garbled and discarded, cut
	// by a partition or consumed by a down receiver. Substrates emit
	// EvLose for it, attributing the loss to the receiver side like every
	// other in-transit loss.
	FateDrop
	// FateHold: the message is still in transit — held for reordering or
	// delay. No event; it will surface from a later Filter or Flush.
	FateHold
)

// Released is a held message leaving the injector through Flush.
type Released struct {
	From, To ProcID
	Msg      Message
}

// faultLink keys the injector's holdback state: one queue per directed
// logical link (the unit the substrates deliver on).
type faultLink struct {
	From, To ProcID
	Instance string
}

// heldMsg is one message in a holdback queue. The two release conditions
// are separate because they answer different adversaries: trafficAt is
// when later traffic on the link may carry the message out (Filter — the
// reordering swap — or Traffic, for a frame header that carried no
// message), flushAt is when the substrate's periodic flush may
// (Flush — the delay bound). A reorder holdback is releasable by traffic
// immediately but NOT by the next flush, otherwise the flush cadence
// (every sim step, every udp receive iteration) would re-deliver it
// before the next message could arrive and the "swap" would degenerate
// into a one-tick delay.
type heldMsg struct {
	msg Message
	// trafficAt is the earliest tick a later Filter on the link may
	// release the message.
	trafficAt int64
	// flushAt is the earliest tick Flush may release the message.
	flushAt int64
}

// ReorderFlushGrace is how many ticks a reorder holdback waits for the
// next traffic on its link before the periodic flush may deliver it
// anyway. On a link with traffic (every protocol here retransmits
// continuously) the swap happens first; on a quiet link the holdback
// degrades into a bounded delay instead of a silent permanent loss. On
// the concurrent engine a message-less header (a probe or an echo) is
// traffic too (Injector.Traffic): a sender whose window the holdback
// keeps shut sends no messages, only probes, and without them the link
// would wait out the whole grace.
const ReorderFlushGrace = 64

// atomicFaultStats is the injector's live counter set: written only by
// the injector's owner, but snapshot-readable from any goroutine.
type atomicFaultStats struct {
	drops, duplicates, reorders, delays, corrupts, partitionDrops, crashDrops atomic.Int64
}

// snapshot copies the counters into a plain FaultStats.
func (a *atomicFaultStats) snapshot() FaultStats {
	return FaultStats{
		Drops:          a.drops.Load(),
		Duplicates:     a.duplicates.Load(),
		Reorders:       a.reorders.Load(),
		Delays:         a.delays.Load(),
		Corrupts:       a.corrupts.Load(),
		PartitionDrops: a.partitionDrops.Load(),
		CrashDrops:     a.crashDrops.Load(),
	}
}

// Injector applies one FaultPlan at one delivery boundary. It is NOT
// goroutine-safe; substrates create injectors aligned with their delivery
// concurrency (sim: one for the whole network, under the scheduler; the
// engine behind runtime, udp and tcp: one per group on each node, under
// that node's mailbox lock). The fault counters alone are written
// atomically so Stats may be read concurrently with injection.
type Injector struct {
	plan *FaultPlan
	r    Rand

	hold      map[faultLink][]heldMsg
	holdOrder []faultLink // deterministic Flush iteration order
	heldN     int
	out       []Message // reusable Filter result buffer

	stats atomicFaultStats
}

// NewInjector builds an injector applying plan with randomness from r.
// The caller seeds r from rng.Mix(plan.Seed, ...) per the determinism
// contract; core stays free of the rng dependency direction.
func NewInjector(plan *FaultPlan, r Rand) *Injector {
	return &Injector{plan: plan, r: r, hold: make(map[faultLink][]heldMsg)}
}

// Plan returns the installed plan.
func (inj *Injector) Plan() *FaultPlan { return inj.plan }

// Stats returns a snapshot of the fault counters. Safe to call
// concurrently with Filter/Flush.
func (inj *Injector) Stats() FaultStats { return inj.stats.snapshot() }

// Held returns the number of messages currently held back (in transit
// inside the injector). Quiescence checks must count them.
func (inj *Injector) Held() int { return inj.heldN }

// HeldOn returns the number of messages held back on the link from -> to
// for instance: still in transit, each keeps its slot in the channel.
func (inj *Injector) HeldOn(from, to ProcID, instance string) int {
	return len(inj.hold[faultLink{From: from, To: to, Instance: instance}])
}

// Filter decides the fate of message m in transit from -> to at tick now.
// The returned batch holds the messages to hand to the receiver, in order:
// the current message first (possibly twice), then any
// expired held messages of the same link. The batch aliases an internal
// buffer valid until the next Filter call. Policy draw order is fixed —
// crash, partition, drop, corrupt, hold (delay, then reorder), duplicate —
// so the consumed random stream is reproducible.
func (inj *Injector) Filter(from, to ProcID, m Message, now int64) ([]Message, Fate) {
	p := inj.plan
	if p.Down(to, now) {
		// The receiver is down: the message is consumed with no effect.
		// Held messages stay held — the network keeps them for the
		// restart.
		inj.stats.crashDrops.Add(1)
		return nil, FateDrop
	}
	if p.Cut(from, to, now) {
		inj.stats.partitionDrops.Add(1)
		return nil, FateDrop
	}
	f := p.linkFaults(from, to)
	key := faultLink{From: from, To: to, Instance: m.Instance}
	out := inj.out[:0]
	fate := FateDeliver
	var stash *heldMsg
	switch {
	case f.DropRate > 0 && inj.r.Float64() < f.DropRate:
		inj.stats.drops.Add(1)
		fate = FateDrop
	case f.CorruptRate > 0 && inj.r.Float64() < f.CorruptRate:
		// Garbled in flight: the receiver's integrity check discards it,
		// so the channel lost it. Counted apart from Drops.
		inj.stats.corrupts.Add(1)
		fate = FateDrop
	case f.DelayRate > 0 && inj.r.Float64() < f.DelayRate:
		stash = &heldMsg{msg: m, trafficAt: now + f.DelayTicks, flushAt: now + f.DelayTicks}
		inj.stats.delays.Add(1)
		fate = FateHold
	case f.ReorderRate > 0 && inj.r.Float64() < f.ReorderRate:
		// Held for the next traffic on this link: stashing AFTER the
		// release scan below defers it to the next Filter, which
		// delivers its own message first — an adjacent swap. Flush
		// must not pre-empt the swap (see heldMsg), so its release
		// waits out the grace period.
		stash = &heldMsg{msg: m, trafficAt: now, flushAt: now + ReorderFlushGrace}
		inj.stats.reorders.Add(1)
		fate = FateHold
	default:
		out = append(out, m)
		if f.DupRate > 0 && inj.r.Float64() < f.DupRate {
			out = append(out, m)
			inj.stats.duplicates.Add(1)
		}
	}
	if inj.heldN > 0 {
		out = inj.releaseLink(key, now, out)
	}
	if stash != nil {
		inj.stashMsg(key, *stash)
	}
	inj.out = out
	return out, fate
}

// Traffic is traffic on the link from -> to for instance that carried no
// message — a frame header alone, such as a probe or an echo: it releases
// the link's held messages whose trafficAt has passed, as a message's
// Filter would, and draws nothing from the random stream. Inside a crash
// window for to or a partition cutting the link it releases nothing. The
// batch aliases the buffer Filter returns, valid until the next call.
func (inj *Injector) Traffic(from, to ProcID, instance string, now int64) []Message {
	if inj.heldN == 0 || inj.plan.Down(to, now) || inj.plan.Cut(from, to, now) {
		return nil
	}
	inj.out = inj.releaseLink(faultLink{From: from, To: to, Instance: instance}, now, inj.out[:0])
	return inj.out
}

// releaseLink appends every expired held message of key to out and removes
// it from the queue.
func (inj *Injector) releaseLink(key faultLink, now int64, out []Message) []Message {
	q := inj.hold[key]
	if len(q) == 0 {
		return out
	}
	keep := q[:0]
	for _, h := range q {
		if h.trafficAt <= now {
			out = append(out, h.msg)
			inj.heldN--
		} else {
			keep = append(keep, h)
		}
	}
	inj.hold[key] = keep
	return out
}

// stashMsg queues h on key's holdback queue.
func (inj *Injector) stashMsg(key faultLink, h heldMsg) {
	if _, ok := inj.hold[key]; !ok {
		inj.holdOrder = append(inj.holdOrder, key)
	}
	inj.hold[key] = append(inj.hold[key], h)
	inj.heldN++
}

// Flush releases every expired held message whose receiver is up and whose
// link is not cut, in a deterministic (first-held link first) order.
// Substrates call it periodically so a delayed message on a quiet link
// still surfaces.
func (inj *Injector) Flush(now int64) []Released {
	if inj.heldN == 0 {
		return nil
	}
	var out []Released
	for _, key := range inj.holdOrder {
		q := inj.hold[key]
		if len(q) == 0 {
			continue
		}
		if inj.plan.Down(key.To, now) || inj.plan.Cut(key.From, key.To, now) {
			continue
		}
		keep := q[:0]
		for _, h := range q {
			if h.flushAt <= now {
				out = append(out, Released{From: key.From, To: key.To, Msg: h.msg})
				inj.heldN--
			} else {
				keep = append(keep, h)
			}
		}
		inj.hold[key] = keep
	}
	return out
}
