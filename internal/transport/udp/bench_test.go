package udp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/stat"
)

// flooder mirrors the runtime package's throughput machine: Step seeds
// one message per peer, Deliver echoes one back, so sustained traffic is
// driven by the delivery path, not the step pacing.
type flooder struct {
	inst      string
	self      core.ProcID
	n         int
	seq       int64  // numbers every message: the engines send only what differs from a link's last message
	blob      []byte // opaque payload body wire-encoded into every datagram
	delivered *atomic.Int64
}

func (f *flooder) Instance() string { return f.inst }

func (f *flooder) Step(env core.Env) bool {
	for q := 0; q < f.n; q++ {
		if core.ProcID(q) != f.self {
			env.Send(core.ProcID(q), f.next())
		}
	}
	return true
}

func (f *flooder) Deliver(env core.Env, from core.ProcID, m core.Message) {
	f.delivered.Add(1)
	env.Send(from, f.next())
}

func (f *flooder) next() core.Message {
	f.seq++
	return core.Message{Instance: f.inst, Kind: "flood", B: core.Payload{Num: f.seq, Blob: f.blob}}
}

func blobBody(size int) []byte {
	if size == 0 {
		return nil
	}
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i)
	}
	return body
}

// floodWindow is the capacity the flood benchmarks run at. The flooder
// has no handshake flags to size, and at the protocols' DefaultCapacity
// the benchmark would measure the window, not the datagram path: two
// full default batches per link keep the path saturated, as the
// pre-window mailboxes did.
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
	body := blobBody(blob)
	stacks := make([]core.Stack, n)
	for i := range stacks {
		stacks[i] = core.Stack{&flooder{inst: "flood", self: core.ProcID(i), n: n, blob: body, delivered: &delivered}}
	}
	c, err := NewCluster(stacks, WithCapacity(floodWindow))
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
