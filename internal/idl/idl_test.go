package idl

import (
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// build assembles an n-process IDL deployment with the given identifiers.
func build(t *testing.T, ids []int64, opts ...sim.Option) (*sim.Network, []*IDL) {
	t.Helper()
	n := len(ids)
	machines := make([]*IDL, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		machines[i] = New("idl", core.ProcID(i), n, ids[i])
		stacks[i] = machines[i].Machines()
	}
	return sim.New(stacks, opts...), machines
}

func minOf(ids []int64) int64 {
	m := ids[0]
	for _, v := range ids[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// checkOutputs asserts Specification 2's Correctness clause on d.
func checkOutputs(t *testing.T, d *IDL, self int, ids []int64, label string) {
	t.Helper()
	if got, want := d.MinID, minOf(ids); got != want {
		t.Fatalf("%s: MinID = %d, want %d", label, got, want)
	}
	for q := range ids {
		if q == self {
			continue
		}
		if got := d.IDTab[q]; got != ids[q] {
			t.Fatalf("%s: IDTab[%d] = %d, want %d", label, q, got, ids[q])
		}
	}
}

func TestCleanLearning(t *testing.T) {
	t.Parallel()
	ids := []int64{42, 7, 99, 15}
	net, machines := build(t, ids, sim.WithSeed(5))
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("Invoke rejected")
	}
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, machines[0], 0, ids, "clean")
}

func TestLearningFromCorruptedConfigurations(t *testing.T) {
	t.Parallel()
	ids := []int64{50, 31, 77}
	trials := 200
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		net, machines := build(t, ids, sim.WithSeed(seed))
		r := rng.New(rng.Mix(seed, 31))
		config.Corrupt(net, r, config.Options{})
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[1].Invoke(net.Env(1))
				return false
			}
			return machines[1].Done()
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkOutputs(t, machines[1], 1, ids, "corrupted")
	}
}

func TestLearningUnderLoss(t *testing.T) {
	t.Parallel()
	ids := []int64{9, 3, 12, 4, 100}
	net, machines := build(t, ids, sim.WithSeed(77), sim.WithLossRate(0.3))
	requested := false
	err := net.RunUntil(func() bool {
		if !requested {
			requested = machines[4].Invoke(net.Env(4))
			return false
		}
		return machines[4].Done()
	}, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, machines[4], 4, ids, "lossy")
}

func TestAllProcessesLearnConcurrently(t *testing.T) {
	t.Parallel()
	ids := []int64{20, 10, 30}
	net, machines := build(t, ids, sim.WithSeed(13))
	for i := range machines {
		if !machines[i].Invoke(net.Env(core.ProcID(i))) {
			t.Fatalf("Invoke at %d rejected", i)
		}
	}
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if !m.Done() {
				return false
			}
		}
		return true
	}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range machines {
		checkOutputs(t, m, i, ids, "concurrent")
	}
}

func TestRepeatedComputationsStayCorrect(t *testing.T) {
	t.Parallel()
	ids := []int64{5, 2}
	net, machines := build(t, ids, sim.WithSeed(3))
	for round := 0; round < 5; round++ {
		// Sabotage the outputs between rounds; a fresh computation must
		// rebuild them.
		machines[0].MinID = 999
		machines[0].IDTab[1] = 888
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[0].Invoke(net.Env(0))
				return false
			}
			return machines[0].Done()
		}, 1_000_000)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkOutputs(t, machines[0], 0, ids, "repeated")
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	net, machines := build(t, []int64{1, 2})
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("first Invoke rejected")
	}
	if machines[0].Invoke(net.Env(0)) {
		t.Fatal("second Invoke accepted while busy")
	}
}

func TestTerminationOfNonStartedComputations(t *testing.T) {
	t.Parallel()
	// Corrupted Request values (Wait/In with no external request) must
	// still lead every machine to Done (Specification 2, Termination).
	ids := []int64{8, 6, 4}
	for trial := 0; trial < 50; trial++ {
		net, machines := build(t, ids, sim.WithSeed(uint64(trial+100)))
		r := rng.New(uint64(trial + 1))
		config.Corrupt(net, r, config.Options{})
		err := net.RunUntil(func() bool {
			for _, m := range machines {
				if !m.Done() {
					return false
				}
			}
			return true
		}, 2_000_000)
		if err != nil {
			t.Fatalf("trial %d: non-started computations did not terminate: %v", trial, err)
		}
	}
}

func TestEventsEmitted(t *testing.T) {
	t.Parallel()
	rec := core.NewRecorder(1 << 16)
	net, machines := build(t, []int64{4, 1}, sim.WithSeed(9), sim.WithObserver(rec))
	machines[0].Invoke(net.Env(0))
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	var start, decide bool
	for _, e := range rec.Events() {
		if e.Instance != "idl" || e.Proc != 0 {
			continue
		}
		switch e.Kind {
		case core.EvStart:
			start = true
		case core.EvDecide:
			decide = true
		}
	}
	if !start || !decide {
		t.Fatalf("start=%v decide=%v, want both", start, decide)
	}
}

func TestAppendStateReflectsOutputs(t *testing.T) {
	t.Parallel()
	a := New("idl", 0, 3, 5)
	b := New("idl", 0, 3, 5)
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines encode differently")
	}
	b.MinID = 1
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("MinID change not reflected in encoding")
	}
}

func TestCorruptPreservesConstants(t *testing.T) {
	t.Parallel()
	d := New("idl", 1, 3, 1234)
	d.Corrupt(rng.New(8))
	if d.ID() != 1234 {
		t.Fatalf("corruption changed the constant ID: %d", d.ID())
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("New with n=1 did not panic")
		}
	}()
	New("idl", 0, 1, 5)
}
