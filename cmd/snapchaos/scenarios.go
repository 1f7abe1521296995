package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/sim"
)

var substrateNames = []string{"sim", "runtime", "udp", "tcp"}

// scenario is one named shape of network adversity.
type scenario struct {
	name string
	desc string
	// plan builds the fault plan for an n-process cluster on substrate
	// sub ("sim" ticks are scheduler steps; on the real-time substrates —
	// runtime, udp, tcp — ticks are milliseconds of wall time). A nil
	// plan is no adversary: the cluster is built without a fault plane.
	plan func(n int, sub string, seed uint64) snapstab.FaultPlan
	// corrupt additionally drives the cluster into an arbitrary initial
	// configuration before the first request.
	corrupt bool
}

// ticks picks the window length for the substrate's tick base: the
// simulator burns steps by the thousand where the real-time engines burn
// milliseconds by the hundred.
func ticks(sub string, steps, ms int64) int64 {
	if sub == "sim" {
		return steps
	}
	return ms
}

// scenarios is the library. Every plan is a pure function of (n,
// substrate, seed), so a failing run reproduces from its descriptor line.
var scenarios = []scenario{
	{
		name: "clean",
		desc: "the paper's setting without faults: no adversary, clean start",
	},
	{
		name:    "corrupted-start",
		desc:    "the paper's claim itself: no adversary, every variable corrupted before the first request",
		corrupt: true,
	},
	{
		name:    "flaky-links",
		desc:    "moderate drop + duplicate + reorder + delay + in-flight corruption (a loss) on every link, from a corrupted start",
		corrupt: true,
		plan: func(n int, sub string, seed uint64) snapstab.FaultPlan {
			return snapstab.FaultPlan{
				Seed: seed,
				Default: snapstab.LinkFaults{
					DropRate:    0.12,
					DupRate:     0.08,
					ReorderRate: 0.08,
					DelayRate:   0.04,
					DelayTicks:  ticks(sub, 50, 5),
					CorruptRate: 0.03,
				},
			}
		},
	},
	{
		name: "split-brain",
		desc: "the cluster is cut in half, requests stall across the cut, then the partition heals",
		plan: func(n int, sub string, seed uint64) snapstab.FaultPlan {
			groupA := make([]int, 0, n/2)
			for p := 0; p < n/2; p++ {
				groupA = append(groupA, p)
			}
			return snapstab.FaultPlan{
				Seed:       seed,
				Partitions: []snapstab.PartitionWindow{{From: 0, Until: ticks(sub, 5_000, 250), GroupA: groupA}},
			}
		},
	},
	{
		name: "duplicate-storm",
		desc: "nearly half of all deliveries are doubled and a fifth arrive out of order",
		plan: func(n int, sub string, seed uint64) snapstab.FaultPlan {
			return snapstab.FaultPlan{
				Seed:    seed,
				Default: snapstab.LinkFaults{DupRate: 0.45, ReorderRate: 0.20},
			}
		},
	},
	{
		name:    "corrupt-then-reset",
		desc:    "corrupted initial configuration plus heavy in-flight corruption, every garbled message discarded at the receiver",
		corrupt: true,
		plan: func(n int, sub string, seed uint64) snapstab.FaultPlan {
			return snapstab.FaultPlan{
				Seed:    seed,
				Default: snapstab.LinkFaults{CorruptRate: 0.25, DropRate: 0.05},
			}
		},
	},
	{
		name: "rolling-crash-restart",
		desc: "every non-initiator process crashes and warm-restarts in turn while requests run",
		plan: func(n int, sub string, seed uint64) snapstab.FaultPlan {
			w := ticks(sub, 1_500, 120)
			var crashes []snapstab.CrashWindow
			for p := 1; p < n; p++ {
				crashes = append(crashes, snapstab.CrashWindow{
					Proc:  p,
					From:  int64(p-1) * w,
					Until: int64(p) * w,
				})
			}
			return snapstab.FaultPlan{Seed: seed, Crashes: crashes}
		},
	},
}

// substrateOf maps the flag value to a substrate specification.
func substrateOf(sub string) snapstab.Substrate {
	switch sub {
	case "sim":
		return snapstab.Sim()
	case "runtime":
		return snapstab.Runtime()
	case "udp":
		return snapstab.UDP()
	case "tcp":
		return snapstab.TCP()
	}
	panic("snapchaos: unknown substrate " + sub)
}

// script drives one built cluster through its protocol's requests to the
// spec verdict, every assertion value-exact on every substrate.
type script func(ctx context.Context) error

// families maps each name of snapstab.Protocols to its builder.
var families = map[string]func(cfg config, opts []snapstab.Option) (snapstab.Cluster, script){
	"pif":     newPIF,
	"typed":   newTyped,
	"idl":     newIDL,
	"mutex":   newMutex,
	"reset":   newReset,
	"snap":    newSnap,
	"forward": newForward,
}

// counters is what a run leaves behind for its report.
type counters struct {
	// nodes holds one entry per process; all zero on sim, which has no
	// links and counts per network instead (sched).
	nodes  []snapstab.TransportStats
	sched  *sim.Stats // the scheduler's totals; nil off sim
	faults snapstab.FaultStats
}

// print writes the run's counters: the scheduler's totals on sim, every
// node's transport counters elsewhere, then the fault plane's totals.
func (c counters) print(w io.Writer) {
	if s := c.sched; s != nil {
		fmt.Fprintf(w, "  totals: %d steps, %d sends, %d deliveries, %d losses (%d full-channel)\n",
			s.Steps, s.Sends, s.Deliveries, s.LinkLosses+s.SendLosses, s.SendLosses)
	} else {
		// Sender-side drops (refused or failed sends) and receiver-side
		// drops (full mailboxes, the model's lose-on-full rule) are kept
		// apart, mirroring EvSendLost vs EvLose.
		for i, s := range c.nodes {
			fmt.Fprintf(w, "  node %d: sent=%d retransmits=%d send-drops=%d mailbox-drops=%d\n",
				i, s.Sends, s.Retransmits, s.SendDrops, s.MailboxDrops)
		}
	}
	f := c.faults
	fmt.Fprintf(w, "  faults: drops=%d dups=%d reorders=%d delays=%d corrupts=%d partition=%d crash=%d\n",
		f.Drops, f.Duplicates, f.Reorders, f.Delays, f.Corrupts, f.PartitionDrops, f.CrashDrops)
}

// runOne builds one cluster under the scenario's plan, drives the
// protocol's request script to its spec verdict, and tears the cluster
// down, returning its final counters and what the fault plane did to the
// run. An otherwise successful
// run fails if any link's in-flight count ever exceeded the capacity
// bound the transport claims to enforce (vacuous on sim, which reports
// no links).
func runOne(sc scenario, protocol, sub string, cfg config) (counters, error) {
	opts := []snapstab.Option{
		snapstab.WithSubstrate(substrateOf(sub)),
		snapstab.WithSeed(cfg.Seed),
	}
	if sc.plan != nil {
		opts = append(opts, snapstab.WithFaults(sc.plan(cfg.N, sub, cfg.Seed)))
	}
	if !cfg.Topo.IsZero() {
		opts = append(opts, snapstab.WithTopology(cfg.Topo))
	}
	if cfg.Capacity != 0 {
		opts = append(opts, snapstab.WithCapacity(cfg.Capacity))
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()

	c, drive := families[protocol](cfg, opts)
	if sc.corrupt {
		c.CorruptEverything(cfg.Seed * 7)
	}
	err := drive(ctx)
	c.Close()
	got := counters{nodes: c.TransportStats(), faults: c.FaultStats()}
	if sub == "sim" {
		s := c.(interface{ Stats() sim.Stats }).Stats()
		got.sched = &s
	}
	if err == nil {
		if werr := core.CheckWindows(got.nodes); werr != nil {
			err = fmt.Errorf("capacity bound broken: %w", werr)
		}
	}
	return got, err
}

// participants returns how many processes take part in a PIF computation
// initiated at process 0: everyone on the default complete network, the
// initiator's neighbourhood on an explicit graph.
func (c config) participants() int {
	if c.Topo.IsZero() {
		return c.N - 1
	}
	return c.Topo.Degree(0)
}

func newPIF(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewPIFCluster(cfg.N, opts...)
	return c, func(ctx context.Context) error {
		for round := int64(0); round < 2; round++ {
			token := 1000*(cfg.SeedToken()) + round
			// The internal Specification 1 checker judges the computation
			// event by event, on every substrate.
			if err := c.ArmSpec(0, "chaos", token); err != nil {
				return fmt.Errorf("broadcast round %d: %w", round, err)
			}
			req := c.BroadcastAsync(0, "chaos", token)
			if err := req.Wait(ctx); err != nil {
				return fmt.Errorf("broadcast round %d: %w", round, err)
			}
			fb := req.Feedbacks()
			if want := cfg.participants(); len(fb) != want {
				return fmt.Errorf("broadcast round %d: %d feedbacks, want %d", round, len(fb), want)
			}
			for _, f := range fb {
				if f.Value.Num != token*1000+int64(f.From) {
					return fmt.Errorf("broadcast round %d: feedback %+v not derived from this broadcast", round, f)
				}
			}
			rep := c.SpecReport()
			if !rep.Started || !rep.Decided {
				return fmt.Errorf("spec checker: started=%v decided=%v", rep.Started, rep.Decided)
			}
			if len(rep.Violations) > 0 {
				return fmt.Errorf("specification 1 violated: %v", rep.Violations)
			}
		}
		return nil
	}
}

// SeedToken derives a small per-config token base so payloads differ
// across seeds without overflowing the feedback arithmetic.
func (c config) SeedToken() int64 { return int64(c.Seed % 1000) }

// chaosDoc is the struct payload the typed cluster carries through the
// gauntlet: a 4KiB body plus fields the assertions can pin exactly.
type chaosDoc struct {
	Round int64  `json:"round"`
	Seed  uint64 `json:"seed"`
	Body  []byte `json:"body"`
}

// newTyped drives the generic JSON cluster through the scenario: a 4KiB
// struct payload is broadcast under the fault plan and every decided
// feedback must decode byte-identical to the echo of the broadcast —
// the blob transit counterpart of newPIF's value-exact Num assertion.
func newTyped(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewTypedPIFCluster(cfg.N, snapstab.JSON[chaosDoc](), opts...)
	return c, func(ctx context.Context) error {
		body := make([]byte, 4096)
		for i := range body {
			body[i] = byte(uint64(i)*2654435761 + cfg.Seed)
		}
		for round := int64(0); round < 2; round++ {
			doc := chaosDoc{Round: round, Seed: cfg.Seed, Body: body}
			if err := c.ArmSpec(0, doc); err != nil {
				return fmt.Errorf("typed broadcast round %d: %w", round, err)
			}
			req := c.BroadcastAsync(0, doc)
			if err := req.Wait(ctx); err != nil {
				return fmt.Errorf("typed broadcast round %d: %w", round, err)
			}
			fb := req.Feedbacks()
			if want := cfg.participants(); len(fb) != want {
				return fmt.Errorf("typed round %d: %d feedbacks, want %d", round, len(fb), want)
			}
			for _, f := range fb {
				if f.Err != nil {
					return fmt.Errorf("typed round %d: feedback from %d undecodable: %w", round, f.From, f.Err)
				}
				if f.Value.Round != round || f.Value.Seed != cfg.Seed || !bytes.Equal(f.Value.Body, body) {
					return fmt.Errorf("typed round %d: feedback from %d not the byte-identical echo", round, f.From)
				}
			}
			rep := c.SpecReport()
			if !rep.Started || !rep.Decided {
				return fmt.Errorf("typed spec checker: started=%v decided=%v", rep.Started, rep.Decided)
			}
			if !rep.ValueChecked {
				return fmt.Errorf("typed spec checker: default echo receiver must be value-checked")
			}
			if len(rep.Violations) > 0 {
				return fmt.Errorf("typed specification 1 violated: %v", rep.Violations)
			}
		}
		return nil
	}
}

func newIDL(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	idlist := snapstab.FleetIDs(cfg.N)
	c := snapstab.NewIDCluster(idlist, opts...)
	return c, func(ctx context.Context) error {
		req := c.LearnAsync(0)
		if err := req.Wait(ctx); err != nil {
			return fmt.Errorf("learn: %w", err)
		}
		if req.MinID() != idlist[0] {
			return fmt.Errorf("learn: minID = %d, want %d", req.MinID(), idlist[0])
		}
		for q, id := range req.Table() {
			if id != idlist[q] {
				return fmt.Errorf("learn: table[%d] = %d, want %d", q, id, idlist[q])
			}
		}
		return nil
	}
}

func newMutex(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewMutexCluster(snapstab.FleetIDs(cfg.N), opts...)
	return c, func(ctx context.Context) error {
		// Every process requests the critical section concurrently; the
		// internal MutexChecker watches Specification 3 the whole time.
		entered := make([]bool, cfg.N)
		reqs := make([]*snapstab.Request, cfg.N)
		for p := 0; p < cfg.N; p++ {
			p := p
			reqs[p] = c.AcquireAsync(p, func() { entered[p] = true })
		}
		for p, req := range reqs {
			if err := req.Wait(ctx); err != nil {
				return fmt.Errorf("acquire at %d: %w", p, err)
			}
		}
		for p, ok := range entered {
			if !ok {
				return fmt.Errorf("process %d was served without executing its critical section", p)
			}
		}
		if v := c.Violations(); len(v) > 0 {
			return fmt.Errorf("mutual exclusion violated: %v", v)
		}
		return nil
	}
}

func newReset(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewResetCluster(cfg.N, nil, opts...)
	return c, func(ctx context.Context) error {
		req := c.ResetAsync(0)
		if err := req.Wait(ctx); err != nil {
			return fmt.Errorf("reset: %w", err)
		}
		// ResetAsync itself verifies full acknowledgment of the epoch and
		// fails the request otherwise; reaching here is the spec verdict.
		return nil
	}
}

func newSnap(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewSnapshotCluster(cfg.N, func(p int) snapstab.Payload {
		return snapstab.Payload{Tag: "state", Num: int64(p) * 111}
	}, opts...)
	return c, func(ctx context.Context) error {
		req := c.CollectAsync(0)
		if err := req.Wait(ctx); err != nil {
			return fmt.Errorf("collect: %w", err)
		}
		views := req.Views()
		if len(views) != cfg.N {
			return fmt.Errorf("collect: %d views, want %d", len(views), cfg.N)
		}
		for q, v := range views {
			if v.Tag != "state" || v.Num != int64(q)*111 {
				return fmt.Errorf("collect: view[%d] = %+v, want state(%d) — stale or fabricated", q, v, q*111)
			}
		}
		return nil
	}
}

// newForward drives the tree-forwarding cluster through the scenario:
// every process sends a string item across the tree from a corrupted
// initial configuration, and the armed forwarding checker judges the
// no-loss / no-duplication / correct-destination spec on every
// substrate.
func newForward(cfg config, opts []snapstab.Option) (snapstab.Cluster, script) {
	c := snapstab.NewForwardingCluster(cfg.N, snapstab.JSON[string](), opts...)
	return c, func(ctx context.Context) error {
		type sent struct{ src, dst int }
		want := make(map[sent]string)
		var reqs []*snapstab.ForwardRequest
		for round := 0; round < 2; round++ {
			for src := 0; src < cfg.N; src++ {
				dst := (src + cfg.N/2 + round) % cfg.N
				if dst == src {
					dst = (src + 1) % cfg.N
				}
				// A pure function of the route: both rounds may pick the same
				// (src, dst) pair on tiny clusters, and the expectation must
				// not depend on which round's entry survives in the map.
				v := fmt.Sprintf("chaos-%d-%d-%d", cfg.Seed, src, dst)
				want[sent{src, dst}] = v
				reqs = append(reqs, c.SendAsync(src, dst, v))
			}
		}
		for _, req := range reqs {
			if err := req.Wait(ctx); err != nil {
				return fmt.Errorf("send %s: %w", req.Key(), err)
			}
		}
		for p := 0; p < cfg.N; p++ {
			for _, d := range c.Deliveries(p) {
				if d.Err != nil {
					continue // fabricated by the initial configuration, flagged as such
				}
				if v, ok := want[sent{d.From, p}]; !ok || d.Value != v {
					return fmt.Errorf("process %d received %q from %d, want %q", p, d.Value, d.From, v)
				}
			}
		}
		if rep := c.SpecReport(); len(rep.Violations) > 0 {
			return fmt.Errorf("forwarding specification violated: %v", rep.Violations)
		}
		return nil
	}
}
