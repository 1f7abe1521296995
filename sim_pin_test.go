package snapstab_test

import (
	"fmt"
	"testing"

	snapstab "github.com/snapstab/snapstab"
)

// TestSimExecutionPinned replays the first requests after corruption on
// an n = 8 mutual-exclusion cluster on Sim: 64 rounds of CorruptEverything
// and one AcquireAsync each, seed 7. The simulator's counters are pinned to
// the values read on the map-keyed simulator, before the link table, the
// cached receiver and the protocol-only observers went in, and unchanged
// by them: a change to the simulator's internals must replay the same
// execution, step for step.
// A change that reschedules on purpose re-reads them and says so.
func TestSimExecutionPinned(t *testing.T) {
	t.Parallel()
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := snapstab.NewMutexCluster(ids, snapstab.WithSubstrate(snapstab.Sim()), snapstab.WithSeed(7))
	defer c.Close()
	for i := 0; i < 64; i++ {
		c.CorruptEverything(uint64(1000 + i))
		req := c.AcquireAsync(i%len(ids), nil)
		<-req.Done()
		if err := req.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	s := c.Stats()
	got := [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}
	want := [4]int{1461220, 2323851, 1162383, 1162740}
	if got != want {
		t.Fatalf("Steps, Sends, Deliveries, SendLosses = %v, want %v", got, want)
	}
}

// TestSimExecutionPinnedCapacityTwo is TestSimExecutionPinned at c = 2,
// the bound every UDP and TCP cluster ships with (flag top 6, windows and
// mailboxes of two): the configuration the sockets run has a
// deterministic execution pin of its own.
func TestSimExecutionPinnedCapacityTwo(t *testing.T) {
	t.Parallel()
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := snapstab.NewMutexCluster(ids, snapstab.WithSubstrate(snapstab.Sim()), snapstab.WithSeed(7), snapstab.WithCapacity(2))
	defer c.Close()
	for i := 0; i < 64; i++ {
		c.CorruptEverything(uint64(1000 + i))
		req := c.AcquireAsync(i%len(ids), nil)
		<-req.Done()
		if err := req.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if vs := c.Violations(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	s := c.Stats()
	got := [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}
	want := [4]int{3309402, 4809347, 2817490, 1993649}
	if got != want {
		t.Fatalf("Steps, Sends, Deliveries, SendLosses = %v, want %v", got, want)
	}
}

// runPinnedRequests runs 32 rounds of CorruptEverything and one request
// each on c; request issues the i-th request and returns its handle.
func runPinnedRequests(t *testing.T, c interface{ CorruptEverything(uint64) }, request func(i int) *snapstab.Request) {
	t.Helper()
	for i := 0; i < 32; i++ {
		c.CorruptEverything(uint64(1000 + i))
		req := request(i)
		<-req.Done()
		if err := req.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestSimExecutionPinnedFamilies pins, as TestSimExecutionPinned does for
// mutual exclusion, the first requests after corruption of the other
// families on an n = 5 Sim cluster, seed 7: IDs-Learning, reset and
// snapshot (read before the clients shared pif.Client), and legacy PIF,
// typed PIF and forwarding (read before each protocol drew its own channel
// garbage). The typed cluster covers blob-carrying garbage, forwarding the
// non-PIF garbage. A refactor of the request face or of corruption must
// replay the same executions.
func TestSimExecutionPinnedFamilies(t *testing.T) {
	t.Parallel()
	const n = 5
	onSim := []snapstab.Option{snapstab.WithSubstrate(snapstab.Sim()), snapstab.WithSeed(7)}
	check := func(t *testing.T, got, want [4]int) {
		t.Helper()
		if got != want {
			t.Fatalf("Steps, Sends, Deliveries, SendLosses = %v, want %v", got, want)
		}
	}
	t.Run("idl", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewIDCluster([]int64{5, 3, 9, 1, 7}, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.LearnAsync(i % n).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{10782, 11761, 5929, 6131})
	})
	t.Run("reset", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewResetCluster(n, nil, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.ResetAsync(i % n).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{10782, 11761, 5929, 6131})
	})
	t.Run("snapshot", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewSnapshotCluster(n, func(p int) snapstab.Payload {
			return snapstab.Payload{Tag: "S", Num: int64(p)}
		}, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.CollectAsync(i % n).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{10665, 11442, 5843, 5899})
	})
	t.Run("pif", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewPIFCluster(n, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.BroadcastAsync(i%n, "t", int64(i)).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{10013, 9781, 5203, 4864})
	})
	t.Run("typed", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewTypedPIFCluster(n, snapstab.String, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.BroadcastAsync(i%n, fmt.Sprint("v", i)).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{10232, 10173, 5360, 5104})
	})
	t.Run("forward", func(t *testing.T) {
		t.Parallel()
		c := snapstab.NewForwardingCluster(n, snapstab.String, onSim...)
		defer c.Close()
		runPinnedRequests(t, c, func(i int) *snapstab.Request { return c.SendAsync(i%n, (i+2)%n, fmt.Sprint("v", i)).Request })
		s := c.Stats()
		check(t, [4]int{s.Steps, s.Sends, s.Deliveries, s.SendLosses}, [4]int{9704, 6423, 3260, 3231})
	})
}
