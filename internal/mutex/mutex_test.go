package mutex

import (
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/spec"
)

// build assembles an n-process mutual exclusion deployment. IDs are
// i*10+3 so process 0 is the leader but IDs differ from indices.
func build(t *testing.T, n int, opts ...Option) ([]*ME, []core.Stack) {
	t.Helper()
	machines := make([]*ME, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		machines[i] = New("me", core.ProcID(i), n, int64(i*10+3), opts...)
		stacks[i] = machines[i].Machines()
	}
	return machines, stacks
}

func TestLocalNumBijection(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 6; n++ {
		for self := 0; self < n; self++ {
			m := New("me", core.ProcID(self), n, int64(self))
			seen := make(map[int]bool)
			for q := 0; q < n; q++ {
				if q == self {
					continue
				}
				k := m.localNum(core.ProcID(q))
				if k < 1 || k >= n {
					t.Fatalf("n=%d self=%d q=%d: localNum=%d outside [1,%d)", n, self, q, k, n)
				}
				if seen[k] {
					t.Fatalf("n=%d self=%d: duplicate local number %d", n, self, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestWinnerPredicate(t *testing.T) {
	t.Parallel()
	m := New("me", 1, 3, 20)
	// Case 1: believes itself leader and favours itself.
	m.IDL.MinID = 20
	m.Value = 0
	if !m.Winner() {
		t.Fatal("leader with Value=0 is not winner")
	}
	m.Value = 1
	if m.Winner() {
		t.Fatal("leader with Value!=0 is winner without privileges")
	}
	// Case 2: privilege from the process known to be the leader.
	m.IDL.MinID = 5
	m.IDL.IDTab[0] = 5
	m.Privileges[0] = true
	if !m.Winner() {
		t.Fatal("privilege from leader not honoured")
	}
	// Privilege from a non-leader does not count.
	m.Privileges[0] = false
	m.IDL.IDTab[2] = 99
	m.Privileges[2] = true
	if m.Winner() {
		t.Fatal("privilege from non-leader wrongly honoured")
	}
}

func TestSingleRequestorServed(t *testing.T) {
	t.Parallel()
	machines, stacks := build(t, 3)
	checker := NewCheckerFor(machines)
	net := sim.New(stacks, sim.WithSeed(11), sim.WithObserver(checker))
	if !machines[1].Invoke(net.Env(1)) {
		t.Fatal("Invoke rejected")
	}
	err := net.RunUntil(func() bool { return machines[1].Request == core.Done && !machines[1].Requested() }, 5_000_000)
	if err != nil {
		t.Fatalf("request never served: %v", err)
	}
	if checker.Entries() != 1 {
		t.Fatalf("served entries = %d, want 1", checker.Entries())
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// NewCheckerFor builds a MutexChecker primed with the initial CS
// occupants of the given machines.
func NewCheckerFor(machines []*ME) *spec.MutexChecker {
	c := spec.NewMutexChecker()
	for i, m := range machines {
		if m.InCS {
			c.PrimeZombie(core.ProcID(i))
		}
	}
	return c
}

func TestAllRequestorsServedCleanStart(t *testing.T) {
	t.Parallel()
	const n = 3
	machines, stacks := build(t, n)
	checker := NewCheckerFor(machines)
	net := sim.New(stacks, sim.WithSeed(21), sim.WithObserver(checker))
	for i := 0; i < n; i++ {
		if !machines[i].Invoke(net.Env(core.ProcID(i))) {
			t.Fatalf("Invoke at %d rejected", i)
		}
	}
	err := net.RunUntil(func() bool {
		for _, m := range machines {
			if m.Requested() {
				return false
			}
		}
		return true
	}, 20_000_000)
	if err != nil {
		t.Fatalf("not all requests served: %v (served entries so far: %d)", err, checker.Entries())
	}
	if checker.Entries() != n {
		t.Fatalf("served entries = %d, want %d", checker.Entries(), n)
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestSnapStabilizationRandomized is Theorem 4's statistical verification:
// from corrupted configurations with garbage-filled channels, every
// external request is served (Start), served requestors never overlap in
// the critical section (Correctness), and the run records the zombie
// activity separately.
func TestSnapStabilizationRandomized(t *testing.T) {
	t.Parallel()
	trials := 60
	if testing.Short() {
		trials = 10
	}
	const n = 3
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		machines, stacks := build(t, n)
		r := rng.New(rng.Mix(seed, 1789))
		net := sim.New(stacks, sim.WithSeed(seed))
		config.Corrupt(net, r, config.Options{})
		checker := NewCheckerFor(machines)
		// Subscribe after priming zombies. The simulator copies its
		// observer list at construction, so rebuild with the checker.
		net = sim.New(stacks, sim.WithSeed(seed), sim.WithObserver(checker))
		config.FillChannels(net, r, config.Options{})

		// Everyone requests as soon as their Request variable allows.
		requested := make([]bool, n)
		err := net.RunUntil(func() bool {
			allServed := true
			for i := 0; i < n; i++ {
				if !requested[i] {
					requested[i] = machines[i].Invoke(net.Env(core.ProcID(i)))
				}
				if !requested[i] || machines[i].Requested() {
					allServed = false
				}
			}
			return allServed
		}, 30_000_000)
		if err != nil {
			t.Fatalf("trial %d (seed %d): requests not all served: %v", trial, seed, err)
		}
		if v := checker.Violations(); len(v) != 0 {
			t.Fatalf("trial %d: mutual exclusion violated: %v", trial, v)
		}
		if checker.Entries() < n {
			t.Fatalf("trial %d: only %d served entries, want >= %d", trial, checker.Entries(), n)
		}
	}
}

func TestRepeatedRequestsRotateFairly(t *testing.T) {
	t.Parallel()
	const n, rounds = 3, 4
	machines, stacks := build(t, n)
	checker := NewCheckerFor(machines)
	net := sim.New(stacks, sim.WithSeed(31), sim.WithObserver(checker))
	served := make([]int, n)
	requested := make([]bool, n)
	err := net.RunUntil(func() bool {
		done := true
		for i := 0; i < n; i++ {
			if served[i] >= rounds {
				continue
			}
			done = false
			if !requested[i] {
				requested[i] = machines[i].Invoke(net.Env(core.ProcID(i)))
			} else if !machines[i].Requested() {
				served[i]++
				requested[i] = false
			}
		}
		return done
	}, 60_000_000)
	if err != nil {
		t.Fatalf("rotation stalled: served=%v: %v", served, err)
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if got, want := checker.Entries(), n*rounds; got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
}

func TestZombieDoesNotBlockService(t *testing.T) {
	t.Parallel()
	// Place a zombie inside the critical section in the initial
	// configuration; a genuine request must still be served, and the
	// overlap must be tallied, not reported.
	machines, stacks := build(t, 3, WithCSLength(40))
	machines[2].InCS = true
	machines[2].CSLeft = 40
	machines[2].Served = false
	checker := NewCheckerFor(machines)
	net := sim.New(stacks, sim.WithSeed(41), sim.WithObserver(checker))
	if !machines[1].Invoke(net.Env(1)) {
		t.Fatal("Invoke rejected")
	}
	err := net.RunUntil(func() bool { return !machines[1].Requested() }, 20_000_000)
	if err != nil {
		t.Fatalf("request not served with zombie present: %v", err)
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("zombie overlap misreported as violation: %v", v)
	}
}

func TestLeaderValueRotates(t *testing.T) {
	t.Parallel()
	// With nobody requesting, the phase loop still runs and the leader's
	// Value must keep rotating (Lemma 11).
	machines, stacks := build(t, 3)
	net := sim.New(stacks, sim.WithSeed(51))
	leader := machines[0]
	seen := map[int]bool{leader.Value: true}
	for i := 0; i < 3_000_000 && len(seen) < 3; i++ {
		net.Step()
		seen[leader.Value] = true
	}
	if len(seen) < 3 {
		t.Fatalf("leader Value visited only %v in 3M steps", seen)
	}
}

func TestCSLengthZeroAtomic(t *testing.T) {
	t.Parallel()
	machines, stacks := build(t, 2, WithCSLength(0))
	checker := NewCheckerFor(machines)
	net := sim.New(stacks, sim.WithSeed(61), sim.WithObserver(checker))
	machines[1].Invoke(net.Env(1))
	err := net.RunUntil(func() bool { return !machines[1].Requested() }, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if checker.Entries() != 1 || len(checker.Violations()) != 0 {
		t.Fatalf("entries=%d violations=%v", checker.Entries(), checker.Violations())
	}
}

func TestCSBodyRuns(t *testing.T) {
	t.Parallel()
	machines, stacks := build(t, 2)
	ran := false
	machines[0].CSBody = func() { ran = true }
	net := sim.New(stacks, sim.WithSeed(71))
	machines[0].Invoke(net.Env(0))
	if err := net.RunUntil(func() bool { return !machines[0].Requested() }, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("critical-section body never executed")
	}
}

func TestCorruptStaysInDomain(t *testing.T) {
	t.Parallel()
	r := rng.New(9)
	for trial := 0; trial < 300; trial++ {
		m := New("me", 1, 4, 7)
		m.Corrupt(r)
		if m.Phase > 4 {
			t.Fatalf("Phase %d out of domain", m.Phase)
		}
		if m.Value < 0 || m.Value >= 4 {
			t.Fatalf("Value %d out of domain", m.Value)
		}
		if m.Request > core.Done {
			t.Fatalf("Request %d out of domain", m.Request)
		}
		if !m.InCS && (m.CSLeft != 0 || m.Served) {
			t.Fatal("CS bookkeeping inconsistent after corruption")
		}
	}
}

func TestCorruptPreservesInstrumentation(t *testing.T) {
	t.Parallel()
	m := New("me", 0, 2, 1)
	m.requested = true
	m.Corrupt(rng.New(4))
	if !m.Requested() {
		t.Fatal("corruption cleared the ground-truth requested flag")
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	machines, stacks := build(t, 2)
	net := sim.New(stacks)
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("first Invoke rejected")
	}
	if machines[0].Invoke(net.Env(0)) {
		t.Fatal("second Invoke accepted while pending")
	}
}

func TestAppendStateDistinguishes(t *testing.T) {
	t.Parallel()
	a := New("me", 0, 3, 1)
	b := New("me", 0, 3, 1)
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines encode differently")
	}
	b.Value = 2
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("Value change invisible in encoding")
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("n=1", func() { New("me", 0, 1, 5) })
	expectPanic("negative CS length", func() { New("me", 0, 2, 5, WithCSLength(-1)) })
}

func TestMachinesStackShape(t *testing.T) {
	t.Parallel()
	m := New("me", 0, 2, 5)
	stack := m.Machines()
	if len(stack) != 4 {
		t.Fatalf("stack has %d machines, want 4 (ME, IDL, IDL/PIF, ME/PIF)", len(stack))
	}
	wantInstances := []string{"me", "me/idl", "me/idl/pif", "me/pif"}
	for i, w := range wantInstances {
		if got := stack[i].Instance(); got != w {
			t.Fatalf("stack[%d] = %s, want %s", i, got, w)
		}
	}
}
