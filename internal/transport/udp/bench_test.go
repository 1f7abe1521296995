package udp

import (
	"fmt"
	"net"
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
	blob      []byte // opaque payload body wire-encoded into every datagram
	delivered *atomic.Int64
}

func (f *flooder) Instance() string { return f.inst }

func (f *flooder) Step(env core.Env) bool {
	for q := 0; q < f.n; q++ {
		if core.ProcID(q) != f.self {
			env.Send(core.ProcID(q), core.Message{Instance: f.inst, Kind: "flood", B: core.Payload{Blob: f.blob}})
		}
	}
	return true
}

func (f *flooder) Deliver(env core.Env, from core.ProcID, m core.Message) {
	f.delivered.Add(1)
	env.Send(from, core.Message{Instance: f.inst, Kind: "flood", B: core.Payload{Blob: f.blob}})
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

// benchCluster binds n nodes on loopback and wires the learned ports.
func benchCluster(b *testing.B, n int, mk func(self core.ProcID) core.Stack) []*Node {
	b.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(core.ProcID(i), mk(core.ProcID(i)), "127.0.0.1:0", make([]string, n), WithCapacity(floodWindow))
		if err != nil {
			b.Fatalf("bind node %d: %v", i, err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	for i, node := range nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			peer, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				b.Fatalf("parse %q: %v", a, err)
			}
			node.SetPeer(core.ProcID(j), peer)
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	return nodes
}

func stopCluster(nodes []*Node) {
	for _, node := range nodes {
		node.Stop()
	}
}

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
	nodes := benchCluster(b, n, func(self core.ProcID) core.Stack {
		return core.Stack{&flooder{inst: "flood", self: self, n: n, blob: body, delivered: &delivered}}
	})
	// Stop per invocation (not b.Cleanup): the runner re-invokes
	// this function while calibrating b.N, and leaked clusters
	// would keep flooding the loopback during the timed run.
	defer stopCluster(nodes)
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
