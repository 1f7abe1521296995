package snapstab_test

import (
	"fmt"
	"runtime"
	"testing"

	snapstab "github.com/snapstab/snapstab"
)

// TestSimConcurrentRequestsReplay: three requests issued back to back at
// three processes of a lossy, corrupted Sim cluster, then waited for,
// replay exactly from the seed — the same scheduler and fault counters
// and the same feedbacks on every run, at GOMAXPROCS 1 and 2 alike. Sim
// registers all three before its one driver takes a step, and evaluates
// every pending condition after each step in process order. Not
// parallel: GOMAXPROCS is the whole process's.
func TestSimConcurrentRequestsReplay(t *testing.T) {
	run := func() string {
		c := snapstab.NewPIFCluster(4, snapstab.WithSeed(11), snapstab.WithLossRate(0.2))
		defer c.Close()
		c.CorruptEverything(5)
		var reqs []*snapstab.BroadcastRequest
		for p := 0; p < 3; p++ {
			reqs = append(reqs, c.BroadcastAsync(p, "replay", int64(p)))
		}
		out := ""
		for p, req := range reqs {
			if err := req.Wait(testCtx(t)); err != nil {
				t.Fatalf("broadcast at %d: %v", p, err)
			}
			out += fmt.Sprintf("%d: %v\n", p, req.Feedbacks())
		}
		return fmt.Sprintf("%s%+v\n%+v\n", out, c.Stats(), c.FaultStats())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := ""
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 20; i++ {
			got := run()
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("GOMAXPROCS %d, run %d:\n%s\nfirst run:\n%s", procs, i, got, want)
			}
		}
	}
}
