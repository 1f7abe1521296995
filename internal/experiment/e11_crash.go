package experiment

import (
	"math"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/stat"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "Future-work boundary: crash (permanent) failures",
		Paper: "§5 conclusion (open question: crash failures)",
		Run:   runE11,
	})
}

// runE11 quantifies the model boundary the paper's conclusion leaves open:
// the protocols assume no permanent failures. With k crashed processes,
// requested PIF computations block (liveness lost — the initiator waits
// for the crashed handshakes forever) but never fabricate a completion
// (safety kept): the per-neighbour flags toward crashed peers never reach
// the top, and the live handshakes still complete.
func runE11(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	trials := cfg.Trials
	t := stat.Table{
		ID:      "E11",
		Title:   "PIF with k crashed participants (crash injected before the request)",
		Columns: []string{"n", "crashed k", "trials", "decisions", "fabricated completions", "live handshakes done", "crashed handshakes done"},
	}
	ns := []int{3, 5}
	if cfg.Quick {
		ns = []int{3}
	}
	type trialResult struct {
		decided               bool
		liveDone, crashedDone int
	}
	row := 0
	for _, n := range ns {
		for k := 0; k < n-1; k++ {
			n, k := n, k
			results := runTrials(cfg, row, trials, func(trial int, seed uint64) trialResult {
				// Crash the tail processes for good: crash windows that
				// never close. A plan of crash windows alone draws no
				// randomness, so the schedule is the crash-free one's.
				plan := &core.FaultPlan{}
				for c := 0; c < k; c++ {
					plan.Crashes = append(plan.Crashes, core.CrashWindow{Proc: core.ProcID(n - 1 - c), Until: math.MaxInt64})
				}
				net, machines := pifDeployment(n, 4, sim.WithSeed(seed), sim.WithFaults(plan))
				token := core.Payload{Tag: "m", Num: int64(trial)}
				machines[0].Invoke(net.Env(0), token)
				// A bounded run: with k = 0 this is ample to decide; with
				// k > 0 the computation must still be in progress at the
				// end.
				_ = net.RunUntil(machines[0].Done, 200_000)
				var res trialResult
				res.decided = machines[0].Done()
				for q := 1; q < n; q++ {
					done := machines[0].State[q] == machines[0].FlagTop()
					if q >= n-k {
						if done {
							res.crashedDone++
						}
					} else if done {
						res.liveDone++
					}
				}
				return res
			})
			row++
			decisions, fabricated, liveDone, crashedDone := 0, 0, 0, 0
			for _, res := range results {
				if res.decided {
					decisions++
					if k > 0 {
						fabricated++
					}
				}
				liveDone += res.liveDone
				crashedDone += res.crashedDone
			}
			t.AddRow(stat.I(n), stat.I(k), stat.I(trials), stat.I(decisions),
				stat.I(fabricated), stat.I(liveDone), stat.I(crashedDone))
		}
	}
	t.AddNote("fabricated completions and crashed-handshake completions must be 0: a crash blocks liveness (decisions happen only at k=0) but cannot forge the handshake — safety survives outside the model's assumptions")
	return []stat.Table{t}
}
