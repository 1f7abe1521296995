package experiment

import (
	"bytes"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/stat"
	"github.com/snapstab/snapstab/internal/wire"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Typed payload scaling: opaque bodies through corrupted clusters",
		Paper: "message-switched forwarding of opaque data (Cournier–Dubois–Villain) over Theorem 2",
		Run:   runE12,
	})
}

// runE12 measures what carrying real application data costs and proves
// it stays exact: a blob of each size (the benchmark triple 0B / 256B /
// 4KiB) is broadcast from a fully corrupted configuration whose garbage
// carries blobs of the same magnitude, and the decision must echo the
// body byte-identically at every feedback. Steps are payload-invariant
// (the handshake does not look at the body); wire bytes scale linearly.
func runE12(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	t := stat.Table{
		ID:      "E12",
		Title:   "PIF with opaque payload bodies, from corrupted configurations (echo application)",
		Columns: []string{"n", "payload", "trials", "timeouts", "garbled decisions", "steps/request (mean)", "msgs/request (mean)", "wire bytes/msg (mean)"},
	}
	ns := []int{3, 5}
	if cfg.Quick {
		ns = []int{3}
	}
	sizes := []int{0, 256, 4096}
	type trialResult struct {
		timeout   bool
		garbled   int
		steps     int
		msgs      int
		wireBytes int64
	}
	row := 0
	for _, n := range ns {
		for _, size := range sizes {
			n, size := n, size
			results := runTrials(cfg, row, cfg.Trials, func(trial int, seed uint64) trialResult {
				var res trialResult
				body := make([]byte, size)
				for i := range body {
					body[i] = byte(int(seed) + i*37)
				}
				token := core.Payload{Tag: "app", Num: int64(trial), Blob: body}

				// Echo application: feedback is the broadcast verbatim, so
				// a garbled decision is directly observable. The initiator
				// records each accepted feedback; the last acceptance per
				// peer is what its decision used.
				fck := make(map[core.ProcID]core.Payload, n)
				machines := make([]*pif.PIF, n)
				stacks := make([]core.Stack, n)
				for i := 0; i < n; i++ {
					cb := pif.Callbacks{
						OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
							return b
						},
					}
					if i == 0 {
						cb.OnFeedback = func(_ core.Env, from core.ProcID, f core.Payload) {
							fck[from] = f
						}
					}
					machines[i] = pif.New("pif", core.ProcID(i), n, cb,
						pif.WithFlagTop(4), pif.WithGarbageBlobs(size))
					stacks[i] = core.Stack{machines[i]}
				}
				// Account every sent message at its wire-encoded size; the
				// scratch buffer keeps the observer allocation-free.
				scratch := make([]byte, 0, 2*size+256)
				net := sim.New(stacks, sim.WithSeed(seed), sim.WithObserver(core.ObserverFunc(func(e core.Event) {
					if e.Kind != core.EvSend {
						return
					}
					res.msgs++
					if enc, err := wire.AppendEncode(scratch[:0], e.Msg); err == nil {
						res.wireBytes += int64(len(enc))
					}
				})))
				//lint:ignore determinism pinned pre-PR-10 derivation: the E12 corruption stream is byte-frozen with the published tables
				r := rng.New(seed ^ 0xB10B)
				config.Corrupt(net, r, config.Options{})

				requested := false
				begin := net.StepCount()
				err := net.RunUntil(func() bool {
					if !requested {
						requested = machines[0].Invoke(net.Env(0), token)
						return false
					}
					return machines[0].Done() && machines[0].BMes.Equal(token)
				}, cfg.MaxSteps)
				if err != nil {
					res.timeout = true
					return res
				}
				res.steps = net.StepCount() - begin
				for q := 1; q < n; q++ {
					f, ok := fck[core.ProcID(q)]
					if !ok || f.Tag != token.Tag || f.Num != token.Num || !bytes.Equal(f.Blob, token.Blob) {
						res.garbled++
					}
				}
				return res
			})
			row++
			timeouts, garbled := 0, 0
			var steps, msgs, bytesPerMsg stat.Samples
			for _, res := range results {
				if res.timeout {
					timeouts++
					continue
				}
				garbled += res.garbled
				steps.AddInt(res.steps)
				msgs.AddInt(res.msgs)
				if res.msgs > 0 {
					bytesPerMsg.Add(float64(res.wireBytes) / float64(res.msgs))
				}
			}
			t.AddRow(stat.I(n), stat.SizeLabel(size), stat.I(cfg.Trials), stat.I(timeouts),
				stat.I(garbled), stat.F(steps.Summary().Mean), stat.F(msgs.Summary().Mean),
				stat.F(bytesPerMsg.Summary().Mean))
		}
	}
	t.AddNote("timeouts and garbled decisions must be 0: the decided feedback echoes the body byte-identically at every size; steps are payload-invariant, wire bytes scale with the body")
	return []stat.Table{t}
}
