package snapstab_test

import (
	"math"
	"runtime"
	"testing"

	snapstab "github.com/snapstab/snapstab"
)

// TestColdUDPClusterAlloc pins what a cold n = 3 UDP cluster allocates
// from construction through one broadcast to Close: the daemon-restart
// case bench/perf's setup_s times. While each node's receive goroutine
// allocated 16 maximal datagram slots before its first read, the cycle
// read 3.1 MiB of TotalAlloc (minimum over 5 cycles, 2-core amd64,
// go1.24); a reader that starts with one slot and grows with demand
// reads about 0.42 MiB. The race detector moves neither figure by more
// than 10 KiB, so one bound serves both builds. Not parallel: TotalAlloc
// is process-wide.
func TestColdUDPClusterAlloc(t *testing.T) {
	const bound = 3 << 19 // 1.5 MiB
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.UDP()))
		if _, err := c.Broadcast(0, "cold", int64(i)); err != nil {
			t.Fatal(err)
		}
		c.Close()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("cold n = 3 UDP cycle: %d KiB (minimum over 5)", least>>10)
	if least > bound {
		t.Errorf("cold n = 3 UDP cycle allocated %d KiB, want at most %d KiB", least>>10, bound>>10)
	}
}
