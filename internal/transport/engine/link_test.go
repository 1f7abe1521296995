package engine_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/stat"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// The window and mux behaviours are the engine's; linktest holds their
// tests once, and this file runs them on the in-memory link. linktest
// imports this package, so they run from the external test package.
var suite = linktest.Link{
	NewMux: func(nProcs int, opts ...engine.Option) (*engine.Mux, error) {
		return engine.NewMux(engine.Memory(), nProcs, opts...)
	},
	NewRawPeer: newRawPeer,
}

func TestIdleIsSilent(t *testing.T) { linktest.IdleIsSilent(t, suite) }
func TestSilentPeerSeesAtMostCMessages(t *testing.T) {
	linktest.SilentPeerSeesAtMostCMessages(t, suite)
}
func TestProbeReopensShutWindow(t *testing.T)      { linktest.ProbeReopensShutWindow(t, suite) }
func TestReboxOverflowIsLost(t *testing.T)         { linktest.ReboxOverflowIsLost(t, suite) }
func TestMuxIsolation(t *testing.T)                { linktest.MuxIsolation(t, suite, nil) }
func TestMuxHostsIndependentClusters(t *testing.T) { linktest.MuxHostsIndependentClusters(t, suite) }
func TestMuxClusterCloseDetaches(t *testing.T)     { linktest.MuxClusterCloseDetaches(t, suite) }
func TestOneFramePerSection(t *testing.T)          { linktest.OneFramePerSection(t, suite) }
func TestFrameAtBudget(t *testing.T)               { linktest.FrameAtBudget(t, suite) }

// rawPeer is process 1 by hand, bound in the node's own address space:
// what the node flushes toward it queues up here, and Send calls the
// node's Arrive as a peer link's Flush would.
type rawPeer struct {
	node   *engine.Node
	toNode engine.LinkConfig // the node's side, captured at its Bind

	mu     sync.Mutex
	frames []rawFrame
	more   chan struct{} // capacity 1: a frame was queued
}

type rawFrame struct {
	links []wire.LinkHeader
	msgs  []core.Message
}

func newRawPeer(t *testing.T, stack core.Stack, opts ...engine.Option) linktest.RawPeer {
	t.Helper()
	p := &rawPeer{more: make(chan struct{}, 1)}
	mem := engine.Memory()
	capture := engine.Transport{FaultSalt: mem.FaultSalt, Bind: func(cfg engine.LinkConfig) (engine.Link, error) {
		p.toNode = cfg
		return mem.Bind(cfg)
	}}
	node, err := engine.NewNode(capture, 0, stack, "", make([]string, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	end, err := mem.Bind(engine.LinkConfig{Self: 1, Peers: 2, Arrive: p.arrive, IO: new(engine.IOCounters)})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.SetPeer(1, end.Addr()); err != nil {
		t.Fatal(err)
	}
	p.node = node
	node.Start()
	linktest.CheckWindows(t, linktest.NodeStats{node})
	t.Cleanup(node.Stop)
	return p
}

// arrive queues one frame; the slices are the sender's scratch.
func (p *rawPeer) arrive(_ core.ProcID, _ uint64, links []wire.LinkHeader, msgs []core.Message) {
	p.mu.Lock()
	p.frames = append(p.frames, rawFrame{append([]wire.LinkHeader(nil), links...), append([]core.Message(nil), msgs...)})
	p.mu.Unlock()
	select {
	case p.more <- struct{}{}:
	default:
	}
}

func (p *rawPeer) Node() *engine.Node { return p.node }

func (p *rawPeer) Next(d time.Duration) ([]wire.LinkHeader, []core.Message, bool) {
	for timeout := time.After(d); ; {
		p.mu.Lock()
		if len(p.frames) > 0 {
			f := p.frames[0]
			p.frames = p.frames[1:]
			p.mu.Unlock()
			return f.links, f.msgs, true
		}
		p.mu.Unlock()
		select {
		case <-p.more:
		case <-timeout:
			return nil, nil, false
		}
	}
}

// Send hands the node one group-0 frame, counting each header's messages
// as a decoder would.
func (p *rawPeer) Send(links []wire.LinkHeader, msgs ...core.Message) {
	links = append([]wire.LinkHeader(nil), links...)
	for i := range links {
		for _, m := range msgs {
			if m.Instance == links[i].Instance {
				links[i].Count++
			}
		}
	}
	p.toNode.Arrive(1, 0, links, msgs)
}

// Restart: a hand-driven peer remembers nothing of the link but the
// frames it has not read yet; a fresh one has none.
func (p *rawPeer) Restart() {
	p.mu.Lock()
	p.frames = nil
	p.mu.Unlock()
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
	// A window of its own, not DefaultCapacity, so ns/op compares across
	// revisions that move the protocols' default.
	e, err := engine.NewCluster(engine.Memory(), linktest.Flood(n, blob, &delivered), engine.WithCapacity(4))
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
