package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/stat"
)

// flooder is a synthetic machine for throughput measurement: every Step
// seeds one message to each peer, and every Deliver echoes one message
// back to the sender. Once seeded, the echo traffic is self-sustaining,
// so the sustained delivery rate measures the substrate's message path
// (link bookkeeping, delivery dispatch) rather than the step pacing.
type flooder struct {
	inst      string
	self      core.ProcID
	n         int
	seq       int64  // numbers every message: the engines send only what differs from a link's last message
	blob      []byte // opaque payload body carried by every message
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

func flooderStacks(n, blob int, delivered *atomic.Int64) []core.Stack {
	var body []byte
	if blob > 0 {
		body = make([]byte, blob)
		for i := range body {
			body[i] = byte(i)
		}
	}
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = core.Stack{&flooder{inst: "flood", self: core.ProcID(i), n: n, blob: body, delivered: delivered}}
	}
	return stacks
}

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
	e := New(flooderStacks(n, blob, &delivered), WithCapacity(4))
	e.Start()
	defer e.Stop()
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
