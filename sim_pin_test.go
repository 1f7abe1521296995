package snapstab_test

import (
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
