// Package config constructs arbitrary initial configurations, realizing
// the model's I = C: every execution of a snap-stabilizing protocol may
// begin with every process variable and every channel holding arbitrary
// values from their domains (§2).
//
// Corruption has two parts:
//
//   - machine state: every core.Corruptible machine in every stack
//     randomizes its own variables over their domains;
//   - channel contents: every logical channel of every core.Garbler
//     machine's instance is filled with up to capacity random well-formed
//     messages that the machine draws itself (garbage), the situation
//     Figure 1 and Lemma 4 reason about.
//
// All randomness comes from a caller-provided generator, so corrupted
// configurations replay from a seed.
package config

import (
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// Options tunes corruption.
type Options struct {
	// FillProbability is the chance that each channel slot receives a
	// garbage message (default 0.5 when zero).
	FillProbability float64
	// MaxUnboundedGarbage bounds the garbage per channel in unbounded
	// networks, where "up to capacity" is meaningless (default 3 when
	// zero). Theorem 1's adversary preloads its own, longer sequences.
	MaxUnboundedGarbage int
}

func (o Options) withDefaults() Options {
	if o.FillProbability == 0 {
		o.FillProbability = 0.5
	}
	if o.MaxUnboundedGarbage == 0 {
		o.MaxUnboundedGarbage = 3
	}
	return o
}

// CorruptMachines randomizes the state of every corruptible machine in the
// network.
func CorruptMachines(net *sim.Network, r *rng.Source) {
	for p := 0; p < net.N(); p++ {
		net.Stack(core.ProcID(p)).Corrupt(r)
	}
}

// FillChannels loads random garbage messages into every directed channel
// of every instance whose machine is a core.Garbler, instance by instance
// in the order of process 0's stack, each message drawn by process 0's
// machine. Each slot of a bounded channel is filled with probability
// opts.FillProbability; unbounded channels receive up to
// opts.MaxUnboundedGarbage messages. Only channels that exist under the
// network's topology are filled — non-edges have no channel to corrupt —
// and skipped pairs draw no randomness, so a complete-graph fill is
// byte-identical with or without an explicit topology.
func FillChannels(net *sim.Network, r *rng.Source, opts Options) {
	opts = opts.withDefaults()
	topo := net.Topology()
	for _, mach := range net.Stack(0) {
		g, ok := mach.(core.Garbler)
		if !ok {
			continue
		}
		for from := 0; from < net.N(); from++ {
			for to := 0; to < net.N(); to++ {
				if from == to {
					continue
				}
				if topo != nil && !topo.HasEdge(core.ProcID(from), core.ProcID(to)) {
					continue
				}
				slots := net.Capacity()
				if slots < 0 {
					slots = opts.MaxUnboundedGarbage
				}
				var garbage []core.Message
				for i := 0; i < slots; i++ {
					if r.Float64() < opts.FillProbability {
						garbage = append(garbage, g.Garbage(r))
					}
				}
				k := sim.LinkKey{From: core.ProcID(from), To: core.ProcID(to), Instance: mach.Instance()}
				if err := net.Link(k).Preload(garbage); err != nil {
					// Unreachable: garbage never exceeds the capacity we
					// just read. Panic loudly rather than corrupt half a
					// configuration.
					panic("config: " + err.Error())
				}
			}
		}
	}
}

// Corrupt applies CorruptMachines and FillChannels: a full arbitrary
// initial configuration.
func Corrupt(net *sim.Network, r *rng.Source, opts Options) {
	CorruptMachines(net, r)
	FillChannels(net, r, opts)
}
