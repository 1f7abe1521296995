package snapstab

import (
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// This file is the public face of the fault-injection plane (DESIGN.md
// §9): mirror types over core.FaultPlan's plan and windows, the
// WithFaults cluster option, and the FaultStats accessor; LinkFaults and
// FaultStats are core's own types. The same plan value drives every
// substrate — the deterministic simulator applies it at Step delivery
// (replaying exactly from the seed), and the concurrent engine (Runtime,
// UDP and TCP, dedicated or muxed) at the mailbox boundary, per logical
// message regardless of how messages were batched into wire frames
// (reproducible decision streams under real concurrency).

// LinkFaults is the fault policy of one directed link (or the plan-wide
// default): core's own type, whose JSON tags are the snapd/fleetgen
// config shape.
type LinkFaults = core.LinkFaults

// Link selects one directed physical link for a per-link policy override.
type Link struct {
	From, To int
}

// PartitionWindow splits the cluster for [From, Until) ticks: every
// message crossing between GroupA and the rest is dropped. The window's
// end is the heal.
type PartitionWindow struct {
	From, Until int64
	// GroupA is one side of the partition; every process not listed is on
	// the other side.
	GroupA []int
}

// CrashWindow silences one process for [From, Until) ticks: it takes no
// actions and arriving messages are consumed with no effect. At Until it
// resumes with its state intact — a crash followed by a warm restart,
// which snap-stabilization absorbs like any other transient fault.
type CrashWindow struct {
	Proc        int
	From, Until int64
}

// FaultPlan is one complete adversarial schedule for a cluster: per-link
// policies plus partition and crash-restart windows, all rooted in one
// seed. The zero value injects nothing (and is free: executions are
// byte-identical to a cluster without a plan). See DESIGN.md §9 for the
// per-substrate determinism contract.
type FaultPlan struct {
	// Seed roots every fault decision. On the Sim substrate the whole
	// run — faults included — replays exactly from (cluster options,
	// plan); on Runtime and UDP the per-receiver decision streams are
	// reproducible but their interleaving is real concurrency.
	Seed uint64
	// Default applies to every directed link without an override.
	Default LinkFaults
	// Links overrides the default per directed link.
	Links map[Link]LinkFaults
	// Partitions are the scheduled split-brain windows.
	Partitions []PartitionWindow
	// Crashes are the scheduled crash-restart windows.
	Crashes []CrashWindow
	// Unit is the tick length on the real-time substrates (default 1ms).
	// The simulator ignores it: one tick is one scheduler step.
	Unit time.Duration
}

// internal converts the public plan to the core representation.
func (p FaultPlan) internal() *core.FaultPlan {
	out := &core.FaultPlan{
		Seed:    p.Seed,
		Default: p.Default,
		Unit:    p.Unit,
	}
	if len(p.Links) > 0 {
		out.Links = make(map[core.LinkSel]core.LinkFaults, len(p.Links))
		for sel, f := range p.Links {
			out.Links[core.LinkSel{From: core.ProcID(sel.From), To: core.ProcID(sel.To)}] = f
		}
	}
	for _, w := range p.Partitions {
		cw := core.PartitionWindow{From: w.From, Until: w.Until}
		for _, q := range w.GroupA {
			cw.GroupA = append(cw.GroupA, core.ProcID(q))
		}
		out.Partitions = append(out.Partitions, cw)
	}
	for _, w := range p.Crashes {
		out.Crashes = append(out.Crashes, core.CrashWindow{Proc: core.ProcID(w.Proc), From: w.From, Until: w.Until})
	}
	return out
}

// WithFaults installs a fault-injection plan on the cluster's substrate.
// An invalid plan (a rate outside [0,1), a window ending before it
// starts) panics at cluster construction, like the other option
// validations.
func WithFaults(plan FaultPlan) Option {
	return func(o *options) { o.faults = plan.internal() }
}

// FaultStats counts the faults injected by the cluster's FaultPlan, by
// category; all zero when no plan is installed. It is core's own type.
type FaultStats = core.FaultStats

// FaultStats returns the injected-fault counters for the whole cluster
// lifetime, aggregated across processes on the concurrent substrates.
// Safe to call while requests are in flight.
func (c *clusterCore) FaultStats() FaultStats { return c.sub.FaultStats() }
