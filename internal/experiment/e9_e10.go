package experiment

import (
	"github.com/snapstab/snapstab/internal/check"
	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/spec"
	"github.com/snapstab/snapstab/internal/stat"
)

func init() {
	register(Experiment{ID: "E9", Title: "Flag-domain ablation: exhaustive model checking", Paper: "design of Algorithm 1 (why flags {0..4})", Run: runE9})
	register(Experiment{ID: "E10", Title: "Known-capacity extension: flag domain 2c+2", Paper: "§4 remark (extension to capacity c)", Run: runE10})
}

func runE9(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()
	t := stat.Table{
		ID:      "E9",
		Title:   "Exhaustive model checking of the 2-process PIF per flag-domain size (capacity 1)",
		Columns: []string{"FlagTop", "abstract states explored", "safety", "termination traps", "counter-example"},
	}
	tops := []int{1, 2, 3, 4, 5}
	if cfg.Quick {
		tops = []int{2, 3, 4}
	}
	rows := runRows(cfg, len(tops), func(i int) []string {
		top := tops[i]
		res, err := check.Safety(check.Options{FlagTop: top, TraceViolation: top < 4})
		if err != nil {
			return []string{stat.I(top), "-", "error: " + err.Error(), "-", "-"}
		}
		term, err := check.Termination(check.Options{FlagTop: top})
		traps := "-"
		if err == nil {
			traps = stat.I(term.PTrapped + term.QTrapped)
		}
		verdict := "SAFE (exhaustive)"
		example := "-"
		if res.Violation != nil {
			verdict = "UNSAFE"
			example = res.Violation.Description
			if len(res.Violation.Trace) > 0 {
				example += "; " + stat.I(len(res.Violation.Trace)) + "-step counter-example"
			}
		}
		return []string{stat.I(top), stat.I(res.Explored), verdict, traps, example}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("the paper's domain {0..4} (FlagTop 4) is the smallest safe one; termination holds for every size (handshakes complete either way — too easily below the threshold)")
	return []stat.Table{t}
}

// capacityAdversary generalizes the Figure 1 construction to capacity c:
// c stale messages per direction plus a stale NeigState give 2c+1 spurious
// increments. It returns the spurious increments achieved and whether the
// victim was driven to a decision.
func capacityAdversary(c int, flagTop int) (spurious uint8, fooled bool) {
	machines := make([]*pif.PIF, 2)
	stacks := make([]core.Stack, 2)
	for i := 0; i < 2; i++ {
		id := core.ProcID(i)
		machines[i] = pif.New("pif", id, 2, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return ackFor(id, b)
			},
		}, pif.WithFlagTop(flagTop))
		stacks[i] = core.Stack{machines[i]}
	}
	net := sim.New(stacks, sim.WithCapacity(c))
	p, q := machines[0], machines[1]

	// q is mid-computation with a stale NeigState of c (its replies echo
	// c); the channel q->p holds echoes 0..c-1; the channel p->q holds
	// flag values c+1..2c, each of which refreshes q's NeigState upward.
	q.Request = core.In
	q.State[0] = 1
	q.Neig[0] = uint8(c)
	kQP := sim.LinkKey{From: 1, To: 0, Instance: "pif"}
	kPQ := sim.LinkKey{From: 0, To: 1, Instance: "pif"}
	var qp, pq []core.Message
	for i := 0; i < c; i++ {
		qp = append(qp, core.Message{Instance: "pif", Kind: pif.Kind, State: 1, Echo: uint8(i), F: core.Payload{Tag: "stale"}})
		pq = append(pq, core.Message{Instance: "pif", Kind: pif.Kind, State: uint8(c + 1 + i), Echo: 0})
	}
	mustPreload(net, kQP, qp...)
	mustPreload(net, kPQ, pq...)

	decided := false
	cb := p.Callbacks()
	cb.OnFeedback = func(core.Env, core.ProcID, core.Payload) { decided = true }
	p.SetCallbacks(cb)

	p.Invoke(net.Env(0), core.Payload{Tag: "fresh"})
	net.Activate(0)
	// Consume the c stale q->p messages: echoes 0..c-1.
	for i := 0; i < c; i++ {
		net.Deliver(kQP)
	}
	// q's stale NeigState: one reply echoing c.
	net.Activate(1)
	net.Deliver(kQP)
	// The c stale p->q messages: each bumps q's NeigState, and q's reply
	// echoes it.
	for i := 0; i < c; i++ {
		net.Deliver(kPQ)
		net.Deliver(kQP)
	}
	spurious = p.State[1]
	return spurious, decided
}

func runE10(cfg Config) []stat.Table {
	cfg = cfg.withDefaults()

	// Table 1: the adversarial threshold at capacity c.
	t1 := stat.Table{
		ID:      "E10",
		Title:   "Capacity-c adversary: spurious increments available vs. flag-domain size",
		Columns: []string{"capacity c", "stale tokens (2c+1)", "spurious reached", "fooled @ FlagTop 2c+1", "fooled @ FlagTop 2c+2"},
	}
	caps := []int{1, 2, 3, 4}
	if cfg.Quick {
		caps = []int{1, 2}
	}
	t1Rows := runRows(cfg, len(caps), func(i int) []string {
		c := caps[i]
		spuriousLow, fooledLow := capacityAdversary(c, 2*c+1)
		spuriousOK, fooledOK := capacityAdversary(c, 2*c+2)
		return []string{stat.I(c), stat.I(2*c + 1), stat.I(int(maxU8(spuriousLow, spuriousOK))),
			stat.B(fooledLow), stat.B(fooledOK)}
	})
	for _, row := range t1Rows {
		t1.AddRow(row...)
	}
	t1.AddNote("with capacity c the adversary owns exactly 2c+1 stale echo tokens; FlagTop = 2c+2 is the smallest safe domain — the paper's c = 1 case generalizes linearly")

	// Table 2: randomized end-to-end validation at each capacity with the
	// correctly sized flag domain.
	t2 := stat.Table{
		ID:      "E10",
		Title:   "PIF(c) with FlagTop 2c+2 from corrupted configurations (n = 3, channels full of garbage)",
		Columns: []string{"capacity c", "FlagTop", "trials", "timeouts", "violations"},
	}
	trials := cfg.Trials / 2
	if trials < 10 {
		trials = 10
	}
	type trialResult struct {
		timeout    bool
		violations int
	}
	for row, c := range caps {
		c := c
		top := 2*c + 2
		results := runTrials(cfg, row, trials, func(trial int, seed uint64) trialResult {
			net, machines := pifDeployment(3, top, sim.WithSeed(seed), sim.WithCapacity(c))
			checker := &spec.PIFChecker{N: 3, Initiator: 0, Instance: "pif", ExpectFck: ackFor}
			net = sim.New(stacksOf(machines), sim.WithSeed(seed), sim.WithCapacity(c), sim.WithObserver(checker))
			//lint:ignore determinism pinned pre-PR-10 derivation: the E9/E10 corruption stream is byte-frozen with the published tables
			r := rng.New(seed ^ 0xFACE)
			config.Corrupt(net, r, config.Options{FillProbability: 0.9})
			token := core.Payload{Tag: "fresh", Num: int64(trial)}
			requested := false
			err := net.RunUntil(func() bool {
				if !requested {
					if machines[0].Invoke(net.Env(0), token) {
						requested = true
						checker.Arm(token)
					}
					return false
				}
				return checker.Decided()
			}, cfg.MaxSteps)
			if err != nil {
				return trialResult{timeout: true}
			}
			return trialResult{violations: len(checker.Violations())}
		})
		timeouts, violations := 0, 0
		for _, res := range results {
			if res.timeout {
				timeouts++
				continue
			}
			violations += res.violations
		}
		t2.AddRow(stat.I(c), stat.I(top), stat.I(trials), stat.I(timeouts), stat.I(violations))
	}
	t2.AddNote("timeouts and violations must be 0 at every capacity")
	return []stat.Table{t1, t2}
}
