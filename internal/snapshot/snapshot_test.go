package snapshot

import (
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// build assembles n snapshot machines whose application state is a local
// counter (readable and bump-able by the tests).
func build(t *testing.T, n int, opts ...sim.Option) (*sim.Network, []*Snapshot, []int64) {
	t.Helper()
	counters := make([]int64, n)
	machines := make([]*Snapshot, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		i := i
		machines[i] = New("snap", core.ProcID(i), n)
		machines[i].Provide = func() core.Payload {
			return core.Payload{Tag: "counter", Num: counters[i]}
		}
		stacks[i] = machines[i].Machines()
	}
	return sim.New(stacks, opts...), machines, counters
}

func TestCleanCollection(t *testing.T) {
	t.Parallel()
	net, machines, counters := build(t, 4, sim.WithSeed(3))
	for i := range counters {
		counters[i] = int64(i * 11)
	}
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("Invoke rejected")
	}
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		if got, want := machines[0].Views[q], (core.Payload{Tag: "counter", Num: int64(q * 11)}); !got.Equal(want) {
			t.Errorf("view of %d = %v, want %v", q, got, want)
		}
	}
}

func TestCollectionFromCorruptedConfiguration(t *testing.T) {
	t.Parallel()
	trials := 80
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		net, machines, counters := build(t, 3, sim.WithSeed(seed), sim.WithLossRate(0.2))
		r := rng.New(rng.Mix(seed, 17))
		config.Corrupt(net, r, config.Options{})
		for i := range counters {
			counters[i] = int64(1000 + trial*10 + i)
		}
		requested := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = machines[2].Invoke(net.Env(2))
				return false
			}
			return machines[2].Done()
		}, 5_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 3; q++ {
			want := core.Payload{Tag: "counter", Num: int64(1000 + trial*10 + q)}
			if got := machines[2].Views[q]; !got.Equal(want) {
				t.Fatalf("trial %d: view of %d = %v, want %v (stale garbage survived)", trial, q, got, want)
			}
		}
	}
}

func TestViewsReflectStateAtProbeTime(t *testing.T) {
	t.Parallel()
	// Values changed AFTER a process answered the probe must not appear:
	// re-collect and compare.
	net, machines, counters := build(t, 2, sim.WithSeed(7))
	counters[1] = 5
	machines[0].Invoke(net.Env(0))
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	first := machines[0].Views[1]
	counters[1] = 99
	machines[0].Invoke(net.Env(0))
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	second := machines[0].Views[1]
	if first.Num != 5 || second.Num != 99 {
		t.Fatalf("views = %v then %v, want 5 then 99", first, second)
	}
}

func TestGarbageProbeAnsweredNeutrally(t *testing.T) {
	t.Parallel()
	_, machines, counters := build(t, 2)
	counters[1] = 42
	reply := machines[1].PIF.Callbacks().OnBroadcast(nil, 0, core.Payload{Tag: "garbage"})
	if !reply.IsZero() {
		t.Fatalf("garbage probe answered with %v, want neutral", reply)
	}
}

func TestNilProviderSafe(t *testing.T) {
	t.Parallel()
	n := 2
	machines := make([]*Snapshot, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		machines[i] = New("snap", core.ProcID(i), n)
		stacks[i] = machines[i].Machines()
	}
	net := sim.New(stacks)
	machines[0].Invoke(net.Env(0))
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !machines[0].Views[1].IsZero() {
		t.Fatalf("nil provider produced %v", machines[0].Views[1])
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	net, machines, _ := build(t, 2)
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("first Invoke rejected")
	}
	if machines[0].Invoke(net.Env(0)) {
		t.Fatal("second Invoke accepted while busy")
	}
}

func TestSnapshotEncodingDistinguishes(t *testing.T) {
	t.Parallel()
	a, b := New("snap", 0, 2), New("snap", 0, 2)
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines encode differently")
	}
	b.Views[1] = core.Payload{Tag: "x"}
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("view change invisible")
	}
}

func TestCorruptInDomain(t *testing.T) {
	t.Parallel()
	m := New("snap", 0, 3)
	m.Corrupt(rng.New(2))
	if m.Request > core.Done {
		t.Fatalf("Request %v out of domain", m.Request)
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("New with n=1 did not panic")
		}
	}()
	New("snap", 0, 1)
}
