package snapstab_test

import (
	"fmt"
	"testing"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/adversary"
	"github.com/snapstab/snapstab/internal/check"
	"github.com/snapstab/snapstab/internal/experiment"
)

// The benchmarks below mirror the experiment index of DESIGN.md §6: one
// benchmark per table/figure (BenchmarkE1..BenchmarkE10 regenerate the
// artifact at smoke scale and report domain-specific metrics), plus
// end-to-end protocol benchmarks on the façade.
//
// Regenerate the full-scale tables with:
//
//	go run ./cmd/snapbench

func benchExperiment(b *testing.B, id string) {
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiment.Config{Quick: true, Trials: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(cfg)
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

// BenchmarkExperimentParallelism measures the wall-clock effect of the
// trial-runner worker pool on a trial-heavy experiment. Throughput must
// improve with parallelism while the tables stay byte-identical (pinned by
// TestParallelRunnerDeterminism in internal/experiment).
func BenchmarkExperimentParallelism(b *testing.B) {
	e, ok := experiment.ByID("E3")
	if !ok {
		b.Fatal("E3 not registered")
	}
	for _, par := range []int{1, 2, 4, 0} { // 0 = GOMAXPROCS
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			cfg := experiment.Config{Quick: true, Trials: 32, Seed: 1, Parallelism: par}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tables := e.Run(cfg); len(tables) == 0 {
					b.Fatal("no tables produced")
				}
			}
		})
	}
}

func BenchmarkE1WorstCase(b *testing.B)     { benchExperiment(b, "E1") }
func BenchmarkE2Impossibility(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3PIF(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4Flush(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5IDL(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6Mutex(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7Complexity(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8SelfVsSnap(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9FlagAblation(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Capacity(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11Crash(b *testing.B)        { benchExperiment(b, "E11") }

// BenchmarkBroadcast measures one complete snap-stabilizing broadcast
// (request to decision) on a clean cluster, per n.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(sizeName(n), func(b *testing.B) {
			c := snapstab.NewPIFCluster(n, snapstab.WithSeed(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Broadcast(0, "m", int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBroadcastCorrupted measures a broadcast including full
// corruption of the cluster beforehand.
func BenchmarkBroadcastCorrupted(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := snapstab.NewPIFCluster(n, snapstab.WithSeed(uint64(i+1)))
				c.CorruptEverything(uint64(i))
				if _, err := c.Broadcast(0, "m", int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdCluster measures a cold n = 3 cluster per concurrent
// substrate: each iteration builds it, decides one broadcast and closes
// it, as bench/perf's setup_s does. Socket setup is noisy (cold TCP rows
// spread several-fold between back-to-back runs), so no gate reads these
// rows; B/op is the stable figure.
func BenchmarkColdCluster(b *testing.B) {
	for _, sc := range []struct {
		name string
		sub  func() snapstab.Substrate
	}{{"runtime", snapstab.Runtime}, {"udp", snapstab.UDP}, {"tcp", snapstab.TCP}} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(sc.sub()))
				if _, err := c.Broadcast(0, "cold", int64(i)); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}

// BenchmarkMutexAcquire measures one critical-section acquisition cycle.
func BenchmarkMutexAcquire(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		b.Run(sizeName(n), func(b *testing.B) {
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i + 1)
			}
			c := snapstab.NewMutexCluster(ids, snapstab.WithSeed(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Acquire(i%n, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutexRecover measures the first acquisition after corruption
// on an n = 8 cluster on Sim: each iteration corrupts every machine and
// channel (untimed), then acquires once, as bench/perf's sim-recover does.
// The execution is seeded: at the same b.N, base and head replay the same
// steps, so the row moves only with the simulator's and the machines' cost
// per step (steps/op says how many there were, ns/step what each cost).
func BenchmarkMutexRecover(b *testing.B) {
	ids := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := snapstab.NewMutexCluster(ids, snapstab.WithSubstrate(snapstab.Sim()), snapstab.WithSeed(1))
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.CorruptEverything(uint64(i + 1))
		b.StartTimer()
		req := c.AcquireAsync(i%len(ids), nil)
		<-req.Done()
		if err := req.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	steps := float64(c.Stats().Steps)
	b.ReportMetric(steps/float64(b.N), "steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
}

// BenchmarkLearnIDs measures one IDs-Learning computation.
func BenchmarkLearnIDs(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(sizeName(n), func(b *testing.B) {
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i*7 + 1)
			}
			c := snapstab.NewIDCluster(ids, snapstab.WithSeed(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Learn(i % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdversaryReplay measures the Theorem 1 record+replay cycle.
func BenchmarkAdversaryReplay(b *testing.B) {
	rec, err := adversary.Record(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := adversary.Replay(rec, 1, 0, true)
		if !out.Violation() {
			b.Fatal("attack failed")
		}
	}
}

// BenchmarkModelCheckerAblated measures the exhaustive safety analysis of
// the FlagTop=2 ablation (the small domain, suitable for per-iteration
// timing; the full domain runs in internal/check's
// TestSafetyPaperProtocolExhaustive and in snapbench -e E9).
func BenchmarkModelCheckerAblated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := check.Safety(check.Options{FlagTop: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation == nil {
			b.Fatal("ablated domain unexpectedly safe")
		}
	}
}

func sizeName(n int) string { return fmt.Sprintf("n=%d", n) }
