package main

import (
	"fmt"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/rng"
)

const (
	simN = 8 // processes in the mutual-exclusion cluster of sim-recover
	pifN = 3 // processes in every PIF cluster

	// maxWidth is the most requests any workload keeps outstanding.
	maxWidth = 3

	// simExactRequests is how many leading requests of sim-recover the
	// message and step counts are taken over. A fixed prefix of a seeded
	// execution repeats bit for bit however many more requests the time
	// window then fits, so a later change can rest a claim on the count.
	simExactRequests = 1024
)

// Order is the application payload of the typed workloads.
type Order struct {
	ID   int64  `json:"id"`
	SKU  string `json:"sku"`
	Note string `json:"note"`
}

// inputs generates everything a workload feeds its cluster, from the
// benchmark seed alone: the cluster receives only generated inputs.
type inputs struct {
	seed  uint64
	notes []string
}

// sub derives the k-th independent 64-bit value of the seed.
func (in *inputs) sub(k uint64) uint64 { return rng.Mix(in.seed, k) }

// Streams of sub: the per-request stream starts high so that request
// indices never collide with the few cluster-level draws.
const (
	subCluster = iota
	subFaults
	subNotes
	subCycle   = 1 << 10
	subRequest = 1 << 20
)

func newInputs(seed uint64, noteLen int) *inputs {
	in := &inputs{seed: seed}
	if noteLen > 0 {
		in.notes = make([]string, 32)
		letters := rng.New(in.sub(subNotes))
		for i := range in.notes {
			b := make([]byte, noteLen)
			for j := range b {
				b[j] = 'a' + byte(letters.Intn(26))
			}
			in.notes[i] = string(b)
		}
	}
	return in
}

// cycle returns the inputs of the n-th cold cycle: the same payload pool
// under a seed of its own, so that the cycles sample the workload's
// requests, scheduler seeds and fault streams and not one of each.
func (in *inputs) cycle(n int) *inputs {
	return &inputs{seed: in.sub(subCycle + uint64(n)), notes: in.notes}
}

func (in *inputs) order(i int) Order {
	r := in.sub(subRequest + uint64(i))
	return Order{
		ID:   int64(r >> 1),
		SKU:  fmt.Sprintf("sku-%04d", r%10000),
		Note: in.notes[i%len(in.notes)],
	}
}

// cluster is what every façade cluster type offers the benchmark.
type cluster interface {
	Close() error
	TransportStats() []snapstab.TransportStats
	FaultStats() snapstab.FaultStats
}

// driver is one built cluster plus the closed-loop request generator
// that belongs to its workload.
type driver struct {
	c cluster
	// width is how many requests a round keeps outstanding.
	width int
	// prepare runs untimed before request i (sim-recover's corruption).
	prepare func(i int)
	// issue submits request i and returns without waiting.
	issue func(i int) pending
	// counters reads the engine's own cumulative counters (replaced by
	// the event hook's counts where workload.hookCounts says so).
	counters func() counterSet
}

// hookFn is a WithEventHook subscriber.
type hookFn func(snapstab.ObservedEvent)

// workload is one row of the workload table in README.md.
type workload struct {
	name, why string
	// engine is the per-layer prefix of the execution engine it runs on.
	engine string
	// noteLen sizes the typed payload's padding (0: legacy payloads).
	noteLen int
	// hookCounts says the engine exports no send counter, so sends are
	// counted by an event hook even with tracing off.
	hookCounts bool
	// hookTrace says the traced pass subscribes to the event stream.
	hookTrace bool
	// exactPrefix is simExactRequests on the seeded engine, 0 elsewhere.
	exactPrefix int
	build       func(in *inputs, hook hookFn) *driver
}

var workloads = []workload{
	{
		name:        "sim-recover",
		why:         "every request is the first after CorruptEverything: the paper's claim; CPU-bound in sim and the machines, no timers, sockets or wire",
		engine:      "sim",
		exactPrefix: simExactRequests,
		build:       buildSimRecover,
	},
	{
		name:       "runtime-serial",
		why:        "serial broadcasts on the in-memory engine: step tick, mailbox and polled Await; bypasses wire, syscalls and coalescing",
		engine:     "runtime",
		hookCounts: true,
		hookTrace:  true,
		build: func(in *inputs, hook hookFn) *driver {
			return buildLegacyPIF(snapstab.Runtime(), in, hook)
		},
	},
	{
		name:      "udp-serial",
		why:       "serial broadcasts on UDP: bound by the step timer times 2c+2 rounds, sockets idle; a faster syscall path must show nothing here",
		engine:    "udp",
		hookTrace: true,
		build: func(in *inputs, hook hookFn) *driver {
			return buildLegacyPIF(snapstab.UDP(), in, hook)
		},
	},
	{
		name:      "udp-contend",
		why:       "three concurrent initiators, 1 KiB JSON payloads: peers answer on arrival, so CPU, sendmmsg, coalescing, wire and codec do the work",
		engine:    "udp",
		noteLen:   980,
		hookTrace: true,
		build: func(in *inputs, hook hookFn) *driver {
			return buildTypedPIF(snapstab.UDP(), pifN, nil, in, hook)
		},
	},
	{
		name:      "tcp-lossy",
		why:       "serial typed broadcasts on TCP under 2% Bernoulli drop, duplicate and reorder: every lost flag waits for the retransmission timer",
		engine:    "tcp",
		noteLen:   210,
		hookTrace: true,
		build: func(in *inputs, hook hookFn) *driver {
			plan := &snapstab.FaultPlan{
				Seed:    in.sub(subFaults),
				Default: snapstab.LinkFaults{DropRate: .02, DupRate: .02, ReorderRate: .02},
			}
			return buildTypedPIF(snapstab.TCP(), 1, plan, in, hook)
		},
	},
}

func clusterOptions(sub snapstab.Substrate, in *inputs, hook hookFn) []snapstab.Option {
	opts := []snapstab.Option{snapstab.WithSubstrate(sub), snapstab.WithSeed(in.sub(subCluster))}
	if hook != nil {
		opts = append(opts, snapstab.WithEventHook(hook))
	}
	return opts
}

func buildSimRecover(in *inputs, _ hookFn) *driver {
	ids := make([]int64, simN)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	c := snapstab.NewMutexCluster(ids, clusterOptions(snapstab.Sim(), in, nil)...)
	return &driver{
		c:       c,
		width:   1,
		prepare: func(i int) { c.CorruptEverything(in.sub(subRequest + uint64(i))) },
		issue: func(i int) pending {
			runs := 0
			req := c.AcquireAsync(i%simN, func() { runs++ })
			return pending{proc: i % simN, done: req.Done(), result: func() error {
				if err := req.Err(); err != nil {
					return err
				}
				return checkAcquire(runs, c.Violations())
			}}
		},
		counters: func() counterSet {
			s := c.Stats()
			return counterSet{
				"sends":       int64(s.Sends),
				"frames":      int64(s.Sends), // in memory every message travels alone
				"steps":       int64(s.Steps),
				"deliveries":  int64(s.Deliveries),
				"send_losses": int64(s.SendLosses),
				"rounds":      int64(s.Rounds),
			}
		},
	}
}

// transportCounters sums the socket substrates' per-node counters.
func transportCounters(c cluster) counterSet {
	out := counterSet{}
	for _, s := range c.TransportStats() {
		out["sends"] += s.Sends
		out["send_drops"] += s.SendDrops
		out["mailbox_drops"] += s.MailboxDrops
		out["redials"] += s.Redials
		out["frames"] += s.SendDatagrams
		out["send_syscalls"] += s.SendSyscalls
		out["recvs"] += s.Recvs
		out["recv_syscalls"] += s.RecvSyscalls
	}
	f := c.FaultStats()
	out["fault_drops"] = f.Drops
	out["fault_dups"] = f.Duplicates
	out["fault_reorders"] = f.Reorders
	return out
}

// buildLegacyPIF is process 0 broadcasting serially with the structured
// legacy payload; the default receiver's acknowledgment is predictable.
func buildLegacyPIF(sub snapstab.Substrate, in *inputs, hook hookFn) *driver {
	c := snapstab.NewPIFCluster(pifN, clusterOptions(sub, in, hook)...)
	return &driver{
		c:     c,
		width: 1,
		issue: func(i int) pending {
			num := int64(in.sub(subRequest+uint64(i)) >> 24)
			req := c.BroadcastAsync(0, "bench", num)
			return pending{proc: 0, done: req.Done(), result: func() error {
				if err := req.Err(); err != nil {
					return err
				}
				return checkFeedbacks(pifN, 0, legacyFeedbacks(req.Feedbacks()), func(q int) snapstab.Payload {
					return snapstab.Payload{Tag: "ack", Num: num*1000 + int64(q)}
				})
			}}
		},
		counters: func() counterSet { return transportCounters(c) },
	}
}

// buildTypedPIF broadcasts JSON-encoded Orders that every peer echoes;
// width initiators (processes 0..width-1) keep one request outstanding
// each.
func buildTypedPIF(sub snapstab.Substrate, width int, faults *snapstab.FaultPlan, in *inputs, hook hookFn) *driver {
	opts := clusterOptions(sub, in, hook)
	if faults != nil {
		opts = append(opts, snapstab.WithFaults(*faults))
	}
	c := snapstab.NewTypedPIFCluster[Order](pifN, snapstab.JSON[Order](), opts...)
	return &driver{
		c:     c,
		width: width,
		issue: func(i int) pending {
			p, order := i%width, in.order(i)
			req := c.BroadcastAsync(p, order)
			return pending{proc: p, done: req.Done(), result: func() error {
				if err := req.Err(); err != nil {
					return err
				}
				return checkFeedbacks(pifN, p, typedFeedbacks(req.Feedbacks()), func(int) Order { return order })
			}}
		},
		counters: func() counterSet { return transportCounters(c) },
	}
}
