package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	snapstab "github.com/snapstab/snapstab"
)

// This file is the -transport mode: the BENCH_0008.json artifact. It
// benchmarks the same end-to-end PIF broadcast on the three concurrent
// substrates — the in-memory runtime, loopback UDP datagrams, and
// persistent loopback TCP connections — so the cost of real sockets,
// and of TCP's framing and connection management relative to UDP, is
// recorded next to the in-memory ceiling. The socket substrates run at
// several capacity bounds c: one broadcast costs 2c+2 handshake rounds
// per peer — wire turnarounds, since new flags leave on arrival — and
// the rows put that slope on record.
//
// Timings are hardware-dependent — the committed file is a recorded
// baseline for trend reading, not a byte-stable artifact like the
// experiment tables.

// transportBenchResult is one (substrate, n, capacity) row.
type transportBenchResult struct {
	Substrate string `json:"substrate"`
	N         int    `json:"n"`
	// Capacity is the channel-capacity bound c the substrate enforced
	// and the machines were built for (flag top 2c+2).
	Capacity int `json:"capacity"`
	// BroadcastNsOp is the wall time of one full PIF broadcast (request
	// to decision).
	BroadcastNsOp float64 `json:"broadcast_ns_op"`
	// ThroughputOpsSec is its reciprocal in broadcasts per second.
	ThroughputOpsSec float64 `json:"throughput_ops_sec"`
	// SendsPerBroadcast is how many messages one broadcast costs across
	// the cluster: 4(c+1)(n-1) when nothing is lost.
	SendsPerBroadcast float64 `json:"sends_per_broadcast"`
	// FramesPerBroadcast is how many wire frames (datagrams, stream
	// frames) carried them, control frames included.
	FramesPerBroadcast float64 `json:"frames_per_broadcast"`
	// MailboxDropsPerBroadcast is the lose-on-full rate under the
	// benchmark load.
	MailboxDropsPerBroadcast float64 `json:"mailbox_drops_per_broadcast"`
}

// transportBenchFile is the schema of BENCH_0008.json.
type transportBenchFile struct {
	Bench     string                 `json:"bench"`
	Schema    int                    `json:"schema"`
	GoVersion string                 `json:"go_version"`
	GoOS      string                 `json:"go_os"`
	GoArch    string                 `json:"go_arch"`
	Seed      uint64                 `json:"seed"`
	Results   []transportBenchResult `json:"results"`
}

// runTransportBench runs the substrate comparison matrix and writes the
// JSON artifact (stdout when out is "-").
func runTransportBench(out string, seed uint64) error {
	file := transportBenchFile{
		Bench:     "BENCH_0008",
		Schema:    2,
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		Seed:      seed,
	}
	socketCaps := []int{1, 4, 16, 64}
	subs := []struct {
		name string
		sub  func() snapstab.Substrate
		caps []int
	}{
		{"runtime", snapstab.Runtime, []int{1}},
		{"udp", snapstab.UDP, socketCaps},
		{"tcp", snapstab.TCP, socketCaps},
	}
	for _, n := range []int{3, 5} {
		for _, s := range subs {
			for _, c := range s.caps {
				r, err := benchTransport(s.name, s.sub(), n, c, seed)
				if err != nil {
					return err
				}
				file.Results = append(file.Results, r)
				fmt.Fprintf(os.Stderr, "%-8s n=%-2d c=%-3d %12.0f ns/broadcast  %8.1f ops/s  %7.1f sends/op  %7.1f frames/op\n",
					s.name, n, c, r.BroadcastNsOp, r.ThroughputOpsSec, r.SendsPerBroadcast, r.FramesPerBroadcast)
			}
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// benchTransport measures one (substrate, n, capacity) cell: a PIF
// broadcast loop with the cluster-wide transport counters read around
// the measured window.
func benchTransport(name string, sub snapstab.Substrate, n, capacity int, seed uint64) (transportBenchResult, error) {
	c := snapstab.NewPIFCluster(n, snapstab.WithSeed(seed), snapstab.WithSubstrate(sub), snapstab.WithCapacity(capacity))
	defer c.Close()
	// Warm up once: connections dialed, lazily-built structures priced
	// out of the loop.
	if _, err := c.Broadcast(0, "warm", 0); err != nil {
		return transportBenchResult{}, err
	}
	sum := func() (sends, frames, drops int64) {
		for _, s := range c.TransportStats() {
			sends += s.Sends
			frames += s.SendDatagrams
			drops += s.MailboxDrops
		}
		return
	}
	sendsBefore, framesBefore, dropsBefore := sum()
	var benchErr error
	totalOps := 0
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			totalOps++
			if _, err := c.Broadcast(0, "bench", int64(i)); err != nil && benchErr == nil {
				benchErr = err
			}
		}
	})
	if benchErr != nil {
		return transportBenchResult{}, fmt.Errorf("%s n=%d c=%d: %w", name, n, capacity, benchErr)
	}
	sendsAfter, framesAfter, dropsAfter := sum()
	nsOp := float64(br.NsPerOp())
	r := transportBenchResult{
		Substrate:     name,
		N:             n,
		Capacity:      capacity,
		BroadcastNsOp: nsOp,
	}
	if nsOp > 0 {
		r.ThroughputOpsSec = 1e9 / nsOp
	}
	// testing.Benchmark reran the loop while calibrating b.N; the
	// counters span every run, so normalize by totalOps.
	if totalOps > 0 {
		r.SendsPerBroadcast = float64(sendsAfter-sendsBefore) / float64(totalOps)
		r.FramesPerBroadcast = float64(framesAfter-framesBefore) / float64(totalOps)
		r.MailboxDropsPerBroadcast = float64(dropsAfter-dropsBefore) / float64(totalOps)
	}
	return r, nil
}
