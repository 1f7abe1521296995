package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/stat"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// BenchmarkRuntimeThroughput measures sustained deliveries/sec on the
// concurrent substrate: one op is one delivered message. Compare across
// revisions with benchstat (ns/op is the inverse of throughput; the
// msgs/sec metric is reported explicitly as well). The blob sub-family
// scales the opaque payload body (0B / 256B / 4KiB) at fixed n, so the
// benchgate CI job guards the blob hot path against regressions.
func BenchmarkRuntimeThroughput(b *testing.B) {
	for _, n := range []int{3, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRuntimeThroughput(b, n, 0)
		})
	}
	// The plain n=8 case above IS the 0B point of the payload triple
	// (0B / 256B / 4KiB); re-running it under a second name would double
	// the benchgate's work for the identical configuration.
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=8/blob=%s", stat.SizeLabel(size)), func(b *testing.B) {
			benchRuntimeThroughput(b, 8, size)
		})
	}
}

func benchRuntimeThroughput(b *testing.B, n, blob int) {
	var delivered atomic.Int64
	// A window of its own, not DefaultCapacity, so ns/op compares across
	// revisions that move the protocols' default.
	e, err := NewCluster(linktest.Flood(n, blob, &delivered), engine.WithCapacity(4))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	// Let the flood reach steady state before timing.
	warmup := time.Now().Add(10 * time.Second)
	for delivered.Load() < int64(n) {
		if time.Now().After(warmup) {
			b.Fatalf("flood never started: %d deliveries", delivered.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.ResetTimer()
	start := time.Now()
	deadline := start.Add(5 * time.Minute)
	target := delivered.Load() + int64(b.N)
	for delivered.Load() < target {
		if time.Now().After(deadline) {
			b.Fatalf("flood stalled: %d of %d deliveries", target-delivered.Load(), b.N)
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "msgs/sec")
	}
}
