package udp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/stat"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// floodWindow is the capacity the flood benchmarks run at. The flooder
// has no handshake flags to size, and at engine.DefaultCapacity (c
// messages per link) the benchmark would measure the window, not the
// datagram path: a window of many full batches keeps every link
// saturated, as the pre-window mailboxes did.
const floodWindow = 1024

// BenchmarkUDPThroughput measures sustained deliveries/sec over real
// loopback sockets: one op is one delivered message. Compare across
// revisions with benchstat. The blob sub-family scales the opaque
// payload body (0B / 256B / 4KiB) at fixed n — every body is
// wire-encoded into and decoded out of real datagrams — so the benchgate
// CI job guards the v2 framing hot path against regressions.
func BenchmarkUDPThroughput(b *testing.B) {
	for _, n := range []int{3, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchUDPThroughput(b, n, 0)
		})
	}
	// The plain n=8 case above IS the 0B point of the payload triple
	// (0B / 256B / 4KiB); re-running it under a second name would double
	// the benchgate's work for the identical configuration.
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=8/blob=%s", stat.SizeLabel(size)), func(b *testing.B) {
			benchUDPThroughput(b, 8, size)
		})
	}
}

func benchUDPThroughput(b *testing.B, n, blob int) {
	var delivered atomic.Int64
	c, err := engine.NewCluster(Transport, linktest.Flood(n, blob, &delivered), engine.WithCapacity(floodWindow))
	if err != nil {
		b.Fatal(err)
	}
	// Close per invocation (not b.Cleanup): the runner re-invokes
	// this function while calibrating b.N, and leaked clusters
	// would keep flooding the loopback during the timed run.
	defer c.Close()
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
