package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/linktest"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/transport/tcp"
	"github.com/snapstab/snapstab/internal/transport/udp"
)

// This file is the -transport -batch mode: the BENCH_0009.json artifact.
// Where BENCH_0008 prices one end-to-end broadcast per substrate, this
// matrix measures raw sustained message throughput over real UDP and TCP
// sockets along the batch dimension — batch=1 (one frame per message)
// against the coalescing ceilings — so the batch-frame
// syscall-amortization claim is a recorded number, not prose. Each row
// also reports the achieved batch occupancy (messages per frame:
// datagram or length-prefixed stream frame) and the syscall amortization
// (messages per sendmmsg/sendto or writev call) from the transport
// counters.
//
// Timings are hardware-dependent — the committed file is a recorded
// baseline for trend reading, not a byte-stable artifact like the
// experiment tables.

// wireBenchResult is one (n, batch, blob) row of the flood matrix.
type wireBenchResult struct {
	Substrate string `json:"substrate"`
	N         int    `json:"n"`
	// Batch is the coalescing ceiling (WithBatch); 1 disables batching.
	Batch int `json:"batch"`
	// Window is the per-link capacity bound the flood ran at (see
	// floodWindow).
	Window int `json:"window"`
	// BlobBytes is the opaque payload body carried by every message.
	BlobBytes int `json:"blob_bytes"`
	// MsgsPerSec is the sustained delivery rate across the cluster.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// BatchOccupancy is messages per sent frame (≈1 at batch=1).
	BatchOccupancy float64 `json:"batch_occupancy"`
	// SendsPerSyscall is messages per socket write call — occupancy
	// times the sendmmsg amortization on Linux.
	SendsPerSyscall float64 `json:"sends_per_syscall"`
	// RecvsPerSyscall is messages per socket read call.
	RecvsPerSyscall float64 `json:"recvs_per_syscall"`
}

// wireBenchFile is the schema of BENCH_0009.json.
type wireBenchFile struct {
	Bench     string            `json:"bench"`
	Schema    int               `json:"schema"`
	GoVersion string            `json:"go_version"`
	GoOS      string            `json:"go_os"`
	GoArch    string            `json:"go_arch"`
	Results   []wireBenchResult `json:"results"`
}

// parseBatches parses the -batch flag ("1,16") into ceilings.
func parseBatches(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -batch entry %q", part)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-batch lists no ceilings")
	}
	return out, nil
}

// runWireBench runs the flood matrix over the batch dimension, on UDP and
// then TCP, and writes the JSON artifact (stdout when out is "-"). quick shrinks the
// matrix and the measurement window to CI-smoke scale.
func runWireBench(out string, batches []int, quick bool) error {
	file := wireBenchFile{
		Bench:     "BENCH_0009",
		Schema:    2,
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
	}
	ns := []int{3, 8, 16}
	blobs := []int{0, 256, 4096}
	window := 3 * time.Second
	if quick {
		ns = []int{3}
		blobs = []int{0}
		window = 200 * time.Millisecond
	}
	for _, sub := range floodSubstrates {
		for _, batch := range batches {
			for _, n := range ns {
				r, err := benchWireFlood(sub, n, batch, 0, window)
				if err != nil {
					return err
				}
				file.Results = append(file.Results, r)
				printWireRow(r)
			}
			// Payload scaling at fixed n=8: bigger bodies mean fewer
			// messages fit under the frame's byte budget, squeezing occupancy.
			for _, blob := range blobs {
				if blob == 0 {
					continue // the n=8 row above IS the 0B point
				}
				r, err := benchWireFlood(sub, 8, batch, blob, window)
				if err != nil {
					return err
				}
				file.Results = append(file.Results, r)
				printWireRow(r)
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

func printWireRow(r wireBenchResult) {
	fmt.Fprintf(os.Stderr, "%s n=%-2d batch=%-4d blob=%-4dB  %12.0f msgs/sec  %6.2f msgs/frame  %6.2f msgs/syscall\n",
		r.Substrate, r.N, r.Batch, r.BlobBytes, r.MsgsPerSec, r.BatchOccupancy, r.SendsPerSyscall)
}

// floodWindow is the capacity bound the flood runs at. Its machine has
// no handshake flags to size, and at the protocols' default bound the
// matrix would measure the link window instead of the datagram path, so
// the flood asks for a window deep enough to keep every link saturated.
const floodWindow = 1024

// floodSubstrate is one socket link the flood runs over.
type floodSubstrate struct {
	name      string
	transport engine.Transport
}

var floodSubstrates = []floodSubstrate{{"udp", udp.Transport}, {"tcp", tcp.Transport}}

// benchWireFlood measures one (substrate, n, batch, blob) cell: sustained
// deliveries/sec over window, with the occupancy and amortization ratios
// read from the transport counters across the same interval.
func benchWireFlood(sub floodSubstrate, n, batch, blob int, window time.Duration) (wireBenchResult, error) {
	var delivered atomic.Int64
	c, err := engine.NewCluster(sub.transport, linktest.Flood(n, blob, &delivered), engine.WithBatch(batch), engine.WithCapacity(floodWindow))
	if err != nil {
		return wireBenchResult{}, err
	}
	defer c.Close()
	// Let the flood reach steady state before timing.
	warmup := time.Now().Add(10 * time.Second)
	for delivered.Load() < int64(n) {
		if time.Now().After(warmup) {
			return wireBenchResult{}, fmt.Errorf("%s n=%d batch=%d: flood never started", sub.name, n, batch)
		}
		time.Sleep(100 * time.Microsecond)
	}
	sum := func() (sends, dgrams, sendSys, recvs, recvSys int64) {
		for _, s := range c.TransportStats() {
			sends += s.Sends
			dgrams += s.SendDatagrams
			sendSys += s.SendSyscalls
			recvs += s.Recvs
			recvSys += s.RecvSyscalls
		}
		return
	}
	s0, d0, ss0, r0, rs0 := sum()
	before := delivered.Load()
	start := time.Now()
	time.Sleep(window)
	elapsed := time.Since(start).Seconds()
	after := delivered.Load()
	s1, d1, ss1, r1, rs1 := sum()

	res := wireBenchResult{Substrate: sub.name, N: n, Batch: batch, Window: floodWindow, BlobBytes: blob}
	if elapsed > 0 {
		res.MsgsPerSec = float64(after-before) / elapsed
	}
	if d := d1 - d0; d > 0 {
		res.BatchOccupancy = float64(s1-s0) / float64(d)
	}
	if d := ss1 - ss0; d > 0 {
		res.SendsPerSyscall = float64(s1-s0) / float64(d)
	}
	if d := rs1 - rs0; d > 0 {
		res.RecvsPerSyscall = float64(r1-r0) / float64(d)
	}
	return res, nil
}
