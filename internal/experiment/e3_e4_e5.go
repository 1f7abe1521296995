package experiment

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/spec"
	"github.com/snapstab/snapstab/internal/stat"
)

func init() {
	register(Experiment{ID: "E3", Title: "PIF snap-stabilization under corruption and loss", Paper: "Theorem 2 / Specification 1", Run: runE3})
	register(Experiment{ID: "E4", Title: "Channel flushing by a complete PIF computation", Paper: "Property 1", Run: runE4})
	register(Experiment{ID: "E5", Title: "IDs-Learning correctness under corruption and loss", Paper: "Theorem 3 / Specification 2", Run: runE5})
}

// pifTrial runs one corrupted-start PIF computation and reports whether it
// started, decided, how many steps the decision took, and any
// specification violations.
func pifTrial(n int, loss float64, seed uint64, maxSteps int) (steps int, violations int, err error) {
	net, machines := pifDeployment(n, 4, sim.WithSeed(seed), sim.WithLossRate(loss))
	//lint:ignore determinism pinned pre-PR-10 derivation: the E3/E4/E5 tables are byte-frozen; rerouting through rng.Mix would re-seed every row
	r := rng.New(seed ^ 0xC0FFEE)
	config.Corrupt(net, r, config.Options{})

	checker := &spec.PIFChecker{N: n, Initiator: 0, Instance: "pif", ExpectFck: ackFor}
	// Rebuild with the observer attached (cheap; machines are shared).
	net = sim.New(stacksOf(machines), sim.WithSeed(seed), sim.WithLossRate(loss), sim.WithObserver(checker))
	config.FillChannels(net, r, config.Options{})

	//lint:ignore determinism token value (not a stream seed) derived from the trial seed; the E3/E4/E5 tables are byte-frozen
	token := core.Payload{Tag: "fresh", Num: int64(seed % 1000)}
	requested := false
	start := 0
	runErr := net.RunUntil(func() bool {
		if !requested {
			if machines[0].Invoke(net.Env(0), token) {
				requested = true
				checker.Arm(token)
				start = net.StepCount()
			}
			return false
		}
		return checker.Decided()
	}, maxSteps)
	if runErr != nil {
		return 0, 0, fmt.Errorf("trial seed %d: %w", seed, runErr)
	}
	return net.StepCount() - start, len(checker.Violations()), nil
}

func stacksOf(machines []*pif.PIF) []core.Stack {
	stacks := make([]core.Stack, len(machines))
	for i, m := range machines {
		stacks[i] = core.Stack{m}
	}
	return stacks
}

func runE3(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	t := stat.Table{
		ID:      "E3",
		Title:   "PIF from corrupted configurations: Specification 1 verdicts",
		Columns: []string{"n", "loss", "trials", "timeouts", "violations", "steps to decide (mean)", "steps (p90)"},
	}
	ns := []int{2, 3, 5, 8}
	if cfg.Quick {
		ns = []int{2, 3}
	}
	type trialResult struct {
		steps      int
		violations int
		timeout    bool
	}
	row := 0
	for _, n := range ns {
		for _, loss := range []float64{0, 0.1, 0.3} {
			n, loss := n, loss
			results := runTrials(cfg, row, cfg.Trials, func(_ int, seed uint64) trialResult {
				s, v, err := pifTrial(n, loss, seed, cfg.MaxSteps)
				if err != nil {
					return trialResult{timeout: true}
				}
				return trialResult{steps: s, violations: v}
			})
			row++
			var steps stat.Samples
			timeouts, violations := 0, 0
			for _, res := range results {
				if res.timeout {
					timeouts++
					continue
				}
				steps.AddInt(res.steps)
				violations += res.violations
			}
			sum := steps.Summary()
			t.AddRow(stat.I(n), stat.F(loss), stat.I(cfg.Trials), stat.I(timeouts),
				stat.I(violations), stat.F(sum.Mean), stat.F(sum.P90))
		}
	}
	t.AddNote("violations and timeouts must be 0: every requested broadcast starts, terminates, reaches all, and decides on genuine feedback")
	return []stat.Table{t}
}

func runE4(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	t := stat.Table{
		ID:      "E4",
		Title:   "Property 1: tagged garbage incident to the initiator after its first complete computation",
		Columns: []string{"n", "trials", "garbage messages planted", "residual after completion"},
	}
	ns := []int{2, 3, 5}
	if cfg.Quick {
		ns = []int{2, 3}
	}
	type trialResult struct {
		planted  int
		residual int
	}
	for row, n := range ns {
		n := n
		results := runTrials(cfg, row, cfg.Trials, func(trial int, seed uint64) trialResult {
			var res trialResult
			net, machines := pifDeployment(n, 4, sim.WithSeed(seed))
			//lint:ignore determinism pinned pre-PR-10 derivation: the E5 corruption stream is byte-frozen with the published tables
			r := rng.New(seed ^ 0xBEEF)
			config.CorruptMachines(net, r)
			// Plant identifiable garbage in every channel incident to the
			// initiator.
			// Messages are no longer comparable (opaque payload bodies);
			// key the planted set by canonical encoding instead.
			tagged := make(map[string]bool)
			msgKey := func(m core.Message) string { return string(core.AppendMessage(nil, m)) }
			for q := 1; q < n; q++ {
				for _, k := range []sim.LinkKey{
					{From: 0, To: core.ProcID(q), Instance: "pif"},
					{From: core.ProcID(q), To: 0, Instance: "pif"},
				} {
					g := machines[0].Garbage(r)
					g.B = core.Payload{Tag: "planted", Num: int64(trial*100 + q)}
					mustPreload(net, k, g)
					tagged[msgKey(g)] = true
					res.planted++
				}
			}
			token := core.Payload{Tag: "fresh", Num: int64(trial)}
			requested := false
			err := net.RunUntil(func() bool {
				if !requested {
					requested = machines[0].Invoke(net.Env(0), token)
					return false
				}
				return machines[0].Done() && machines[0].BMes.Equal(token)
			}, cfg.MaxSteps)
			if err != nil {
				res.residual++ // count a timeout as a failure
				return res
			}
			for q := 1; q < n; q++ {
				for _, k := range []sim.LinkKey{
					{From: 0, To: core.ProcID(q), Instance: "pif"},
					{From: core.ProcID(q), To: 0, Instance: "pif"},
				} {
					for _, m := range net.Link(k).Contents() {
						if tagged[msgKey(m)] {
							res.residual++
						}
					}
				}
			}
			return res
		})
		planted, residual := 0, 0
		for _, res := range results {
			planted += res.planted
			residual += res.residual
		}
		t.AddRow(stat.I(n), stat.I(cfg.Trials), stat.I(planted), stat.I(residual))
	}
	t.AddNote("residual must be 0: a complete computation flushes every initial message from the initiator's channels")
	return []stat.Table{t}
}

func runE5(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	t := stat.Table{
		ID:      "E5",
		Title:   "IDs-Learning from corrupted configurations: Specification 2 verdicts",
		Columns: []string{"n", "loss", "trials", "timeouts", "wrong minID", "wrong ID-Tab entries"},
	}
	ns := []int{2, 4, 8}
	if cfg.Quick {
		ns = []int{2, 4}
	}
	type trialResult struct {
		timeout            bool
		wrongMin, wrongTab int
	}
	row := 0
	for _, n := range ns {
		for _, loss := range []float64{0, 0.2} {
			n, loss := n, loss
			results := runTrials(cfg, row, cfg.Trials, func(_ int, seed uint64) trialResult {
				r := rng.New(seed)
				ids := make([]int64, n)
				perm := r.Perm(n)
				for i := range ids {
					ids[i] = int64(perm[i]*17 + 3)
				}
				machines := make([]*idl.IDL, n)
				stacks := make([]core.Stack, n)
				for i := 0; i < n; i++ {
					machines[i] = idl.New("idl", core.ProcID(i), n, ids[i])
					stacks[i] = machines[i].Machines()
				}
				net := sim.New(stacks, sim.WithSeed(seed), sim.WithLossRate(loss))
				config.Corrupt(net, r, config.Options{})
				requested := false
				err := net.RunUntil(func() bool {
					if !requested {
						requested = machines[0].Invoke(net.Env(0))
						return false
					}
					return machines[0].Done()
				}, cfg.MaxSteps)
				if err != nil {
					return trialResult{timeout: true}
				}
				var res trialResult
				minID := ids[0]
				for _, id := range ids {
					if id < minID {
						minID = id
					}
				}
				if machines[0].MinID != minID {
					res.wrongMin++
				}
				for q := 1; q < n; q++ {
					if machines[0].IDTab[q] != ids[q] {
						res.wrongTab++
					}
				}
				return res
			})
			row++
			timeouts, wrongMin, wrongTab := 0, 0, 0
			for _, res := range results {
				if res.timeout {
					timeouts++
				}
				wrongMin += res.wrongMin
				wrongTab += res.wrongTab
			}
			t.AddRow(stat.I(n), stat.F(loss), stat.I(cfg.Trials), stat.I(timeouts), stat.I(wrongMin), stat.I(wrongTab))
		}
	}
	t.AddNote("all error columns must be 0: at the decision the initiator knows every identifier and the minimum")
	return []stat.Table{t}
}
