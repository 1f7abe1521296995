// Command snapbench regenerates the paper's evaluation artifacts: every
// experiment of DESIGN.md §6 (E1..E12), printed as the tables recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	snapbench                  # all experiments, reference scale
//	snapbench -e E3,E9         # a subset
//	snapbench -quick           # smoke-test scale
//	snapbench -trials 500      # crank the statistics
//	snapbench -parallel 8      # trial-runner workers (0 = GOMAXPROCS)
//	snapbench -markdown        # emit EXPERIMENTS.md-style markdown
//	snapbench -topo -out bench/BENCH_0006.json        # topology benchmark matrix
//	snapbench -transport -out bench/BENCH_0008.json   # substrate comparison (runtime/udp/tcp)
//	snapbench -transport -batch 1,16 -out bench/BENCH_0009.json   # UDP and TCP floods over the batch dimension
//
// Tables are byte-identical at every -parallel setting: each trial's
// randomness is a pure function of (seed, row, trial). The -topo mode is
// different in kind: it emits wall-clock throughput and scheduler-cost
// measurements (complete vs ring vs tree at n = 8/16) as machine-readable
// JSON — a hardware-dependent baseline, not a reproducible table.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/snapstab/snapstab/internal/experiment"
)

func main() {
	var (
		ids      = flag.String("e", "", "comma-separated experiment IDs (default: all)")
		trials   = flag.Int("trials", 0, "trials per table row (0 = default)")
		seed     = flag.Uint64("seed", 1, "base seed")
		quick    = flag.Bool("quick", false, "smoke-test scale")
		parallel = flag.Int("parallel", 0, "trial-runner workers (0 = GOMAXPROCS, 1 = sequential)")
		markdown = flag.Bool("markdown", false, "emit markdown tables")
		topo     = flag.Bool("topo", false, "run the topology benchmark matrix and emit BENCH_0006.json instead")
		trans    = flag.Bool("transport", false, "run the substrate comparison (runtime/udp/tcp) and emit BENCH_0008.json instead")
		batch    = flag.String("batch", "", "-transport only: run the UDP and TCP flood matrix over these coalescing ceilings (e.g. \"1,16\") and emit BENCH_0009.json instead")
		out      = flag.String("out", "-", "-topo/-transport only: output file (default stdout)")
	)
	flag.Parse()

	if *topo {
		if err := runTopoBench(*out, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "snapbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trans {
		if *batch != "" {
			batches, err := parseBatches(*batch)
			if err != nil {
				fmt.Fprintln(os.Stderr, "snapbench:", err)
				os.Exit(1)
			}
			if err := runWireBench(*out, batches, *quick); err != nil {
				fmt.Fprintln(os.Stderr, "snapbench:", err)
				os.Exit(1)
			}
			return
		}
		if err := runTransportBench(*out, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "snapbench:", err)
			os.Exit(1)
		}
		return
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "snapbench: -parallel must be >= 0, got %d\n", *parallel)
		os.Exit(1)
	}
	cfg := experiment.Config{Trials: *trials, Seed: *seed, Quick: *quick, Parallelism: *parallel}
	var selected []experiment.Experiment
	if *ids == "" {
		selected = experiment.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiment.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "snapbench: unknown experiment %q\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		tables := e.Run(cfg)
		if !*markdown {
			fmt.Printf("=== %s: %s (reproduces: %s) — %.1fs ===\n\n",
				e.ID, e.Title, e.Paper, time.Since(start).Seconds())
		} else {
			fmt.Printf("### %s: %s\n\nReproduces: %s.\n\n", e.ID, e.Title, e.Paper)
		}
		for _, t := range tables {
			if *markdown {
				t.Markdown(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
	}
}
