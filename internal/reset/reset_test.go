package reset

import (
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

func build(t *testing.T, n int, opts ...sim.Option) (*sim.Network, []*Reset) {
	t.Helper()
	machines := make([]*Reset, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		machines[i] = New("reset", core.ProcID(i), n)
		stacks[i] = machines[i].Machines()
	}
	return sim.New(stacks, opts...), machines
}

func TestCleanResetReachesEveryone(t *testing.T) {
	t.Parallel()
	net, machines := build(t, 4, sim.WithSeed(3))
	applied := make([]int64, 4)
	for i := range machines {
		i := i
		machines[i].OnReset = func(epoch int64) { applied[i] = epoch }
	}
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("Invoke rejected")
	}
	if err := net.RunUntil(machines[0].Done, 1_000_000); err != nil {
		t.Fatal(err)
	}
	epoch := machines[0].Epoch
	for i, got := range applied {
		if got != epoch {
			t.Errorf("process %d applied epoch %d, want %d", i, got, epoch)
		}
	}
	if !machines[0].AllAcked(epoch) {
		t.Fatalf("initiator's acknowledgment record incomplete: %v", machines[0].Acked)
	}
}

func TestResetFromCorruptedConfiguration(t *testing.T) {
	t.Parallel()
	trials := 100
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		net, machines := build(t, 3, sim.WithSeed(seed), sim.WithLossRate(0.2))
		r := rng.New(rng.Mix(seed, 33))
		config.Corrupt(net, r, config.Options{})
		// Corrupted Request = In at peers can launch concurrent reset
		// computations whose epochs overwrite later state; the guarantee
		// of the STARTED computation is that every process EXECUTED the
		// handler with its epoch before the decision — record sets.
		applied := make([]map[int64]bool, 3)
		for i := range machines {
			i := i
			applied[i] = make(map[int64]bool)
			machines[i].OnReset = func(epoch int64) { applied[i][epoch] = true }
		}
		requested := false
		var epochAtStart int64
		err := net.RunUntil(func() bool {
			if !requested {
				if machines[1].Invoke(net.Env(1)) {
					requested = true
				}
				return false
			}
			if epochAtStart == 0 && machines[1].Request == core.In {
				epochAtStart = machines[1].Epoch
			}
			return epochAtStart != 0 && machines[1].Done()
		}, 5_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range machines {
			if !applied[i][epochAtStart] {
				t.Fatalf("trial %d: process %d never executed the reset handler for epoch %d (applied: %v)",
					trial, i, epochAtStart, applied[i])
			}
		}
		if !machines[1].AllAcked(epochAtStart) {
			t.Fatalf("trial %d: decision without full acknowledgment of epoch %d: %v",
				trial, epochAtStart, machines[1].Acked)
		}
	}
}

func TestGarbageBroadcastDoesNotResetApplication(t *testing.T) {
	t.Parallel()
	m := New("reset", 0, 2)
	resets := 0
	m.OnReset = func(int64) { resets++ }
	f := m.onBroadcast(nil, 1, core.Payload{Tag: "garbage", Num: 9})
	if resets != 0 {
		t.Fatal("garbage broadcast triggered the application handler")
	}
	if f.Tag != TagAck || f.Num != -1 {
		t.Fatalf("garbage acknowledged with %v, want neutral ack", f)
	}
}

func TestEpochAdoption(t *testing.T) {
	t.Parallel()
	m := New("reset", 1, 2)
	m.Epoch = 5
	m.onBroadcast(nil, 0, core.Payload{Tag: TagReset, Num: 42})
	if m.Epoch != 42 {
		t.Fatalf("epoch = %d after reset broadcast, want 42", m.Epoch)
	}
}

func TestRepeatedResetsIncrementEpoch(t *testing.T) {
	t.Parallel()
	net, machines := build(t, 2, sim.WithSeed(9))
	var last int64
	for round := 0; round < 4; round++ {
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
		if machines[0].Epoch <= last {
			t.Fatalf("round %d: epoch did not advance (%d -> %d)", round, last, machines[0].Epoch)
		}
		last = machines[0].Epoch
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	net, machines := build(t, 2)
	if !machines[0].Invoke(net.Env(0)) {
		t.Fatal("first Invoke rejected")
	}
	if machines[0].Invoke(net.Env(0)) {
		t.Fatal("second Invoke accepted while busy")
	}
}

func TestSnapshotDistinguishes(t *testing.T) {
	t.Parallel()
	a, b := New("reset", 0, 3), New("reset", 0, 3)
	if string(a.AppendState(nil)) != string(b.AppendState(nil)) {
		t.Fatal("identical machines encode differently")
	}
	b.Epoch = 7
	if string(a.AppendState(nil)) == string(b.AppendState(nil)) {
		t.Fatal("epoch change invisible in encoding")
	}
}

func TestCorruptInDomain(t *testing.T) {
	t.Parallel()
	m := New("reset", 0, 3)
	m.Corrupt(rng.New(5))
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
	New("reset", 0, 1)
}
