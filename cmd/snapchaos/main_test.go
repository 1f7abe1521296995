package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// TestGauntletOnSim runs the whole scenario library against every
// cluster type on the deterministic substrate — fast, reproducible, and
// exactly what the nightly workflow runs at larger scale — at sim's
// default bound c = 1 and at c = 2, the bound every socket request ships
// with, where the armed Specification 1 checker judges PIF at flag top 6.
func TestGauntletOnSim(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
	}{
		{"c=1", config{N: 3}},
		{"c=2", config{N: 4, Capacity: 2}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			cfg.Scenario, cfg.Protocol, cfg.Substrate = "all", "all", "sim"
			cfg.Seed, cfg.Timeout = 1, time.Minute
			failed, err := run(&out, cfg)
			if err != nil {
				t.Fatalf("%s: run: %v", cfg.knobs(), err)
			}
			if len(failed) > 0 {
				t.Fatalf("%s: failed runs:\n%s\noutput:\n%s", cfg.knobs(), strings.Join(failed, "\n"), out.String())
			}
			// 7 scenarios x 7 protocols, each line naming the run's settings.
			if !strings.Contains(out.String(), "49/49 runs passed") ||
				!strings.Contains(out.String(), " "+cfg.knobs()+" ") {
				t.Fatalf("%s: unexpected output:\n%s", cfg.knobs(), out.String())
			}
		})
	}
}

// TestSingleSimRunPrintsSchedulerTotals: sim has no links, so a single run
// there reports the scheduler's counters, not n rows of zeros. The same
// run at -capacity 2 takes more steps: the flag domain grows from
// {0..4} to {0..6}, so each handshake needs more round trips.
func TestSingleSimRunPrintsSchedulerTotals(t *testing.T) {
	totals := regexp.MustCompile(`(?m)^  totals: ([1-9]\d*) steps, [1-9]\d* sends, [1-9]\d* deliveries, \d+ losses \(\d+ full-channel\)$`)
	steps := make(map[int]int)
	for _, capacity := range []int{0, 2} {
		var out strings.Builder
		failed, err := run(&out, config{
			Scenario:  "corrupted-start",
			Protocol:  "pif",
			Substrate: "sim",
			N:         3,
			Capacity:  capacity,
			Seed:      1,
			Timeout:   time.Minute,
		})
		if err != nil || len(failed) > 0 {
			t.Fatalf("capacity %d: run: %v %v\n%s", capacity, err, failed, out.String())
		}
		m := totals.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("capacity %d: no scheduler totals line:\n%s", capacity, out.String())
		}
		steps[capacity], _ = strconv.Atoi(m[1])
		if strings.Contains(out.String(), "node 0: ") {
			t.Errorf("capacity %d: sim run printed per-node transport counters:\n%s", capacity, out.String())
		}
		if !strings.Contains(out.String(), "  faults: drops=0 ") {
			t.Errorf("capacity %d: no fault plane totals:\n%s", capacity, out.String())
		}
	}
	if steps[2] <= steps[0] {
		t.Errorf("c = 2 took %d steps, c = 1 took %d: -capacity did not reach the cluster", steps[2], steps[0])
	}
}

// TestGauntletTopologyNarrowsMatrix pins the -topology matrix rules: an
// explicit sparse graph silently narrows protocol "all" to what can
// route over it, and naming an unsupported combination is an error.
func TestGauntletTopologyNarrowsMatrix(t *testing.T) {
	var out strings.Builder
	failed, err := run(&out, config{
		Scenario:  "split-brain",
		Protocol:  "all",
		Substrate: "sim",
		N:         4,
		Topology:  "ring",
		Seed:      1,
		Timeout:   time.Minute,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("failed runs:\n%s\noutput:\n%s", strings.Join(failed, "\n"), out.String())
	}
	// A ring is connected but neither complete nor a tree: only the
	// neighbourhood protocols remain.
	if !strings.Contains(out.String(), "2/2 runs passed") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "topology ring: 4 processes, 4 edges") {
		t.Fatalf("missing topology banner:\n%s", out.String())
	}
	if _, err := run(&out, config{
		Scenario: "split-brain", Protocol: "mutex", Substrate: "sim",
		N: 4, Topology: "ring", Seed: 1, Timeout: time.Minute,
	}); err == nil {
		t.Fatalf("mutex over a ring accepted; want an error")
	}
}

// TestGauntletOneConcurrentRun smoke-tests the real-concurrency path the
// nightly exercises in full: one adversarial scenario on the runtime
// substrate, and the paper's own setting — a corrupted start, no
// adversary — over loopback sockets. A selection of exactly one run
// prints every node's transport counters and the fault plane's totals.
// A concurrent run's message count, and so whether a plan's corruption
// rate draws any, varies from run to run and with the engine's fault
// stream: the concurrent runs of corrupting scenarios must draw some
// between them, while each sim run replays its own.
// The four flaky-links forwarding runs are the seeds on which the
// runtime's former channel, which duplicated and overtook, delivered an
// item twice (11, 21, 23) or wedged a send until its deadline (32). The
// corrupt-then-reset runs date from when in-flight corruption forged
// payloads: forwarding on sim exhausted its step budget on seeds 1, 3, 20
// and 32, forwarding ran with the plan's corruption zeroed on the
// concurrent substrates, and mutex there ran with its violation log
// unread. The flaky-links runs on sim date from when a message the fault
// plane held back left its channel, so the link carried more than c: PIF
// accepted a previous broadcast's acknowledgment on seeds 37, 459 and
// 527, and forwarding exhausted its step budget on seed 112.
func TestGauntletOneConcurrentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent gauntlet skipped in -short mode")
	}
	concurrentCorrupts := false
	for _, tc := range []struct {
		scenario, protocol, substrate string
		n                             int
		seed                          uint64
	}{
		{"flaky-links", "pif", "runtime", 3, 2},
		{"corrupted-start", "pif", "udp", 3, 2},
		{"corrupted-start", "forward", "tcp", 3, 2},
		{"flaky-links", "forward", "runtime", 4, 11},
		{"flaky-links", "forward", "runtime", 4, 21},
		{"flaky-links", "forward", "runtime", 4, 23},
		{"flaky-links", "forward", "runtime", 4, 32},
		{"corrupt-then-reset", "forward", "sim", 4, 1},
		{"corrupt-then-reset", "forward", "sim", 4, 3},
		{"corrupt-then-reset", "forward", "sim", 4, 20},
		{"corrupt-then-reset", "forward", "sim", 4, 32},
		{"flaky-links", "pif", "sim", 4, 37},
		{"flaky-links", "pif", "sim", 4, 459},
		{"flaky-links", "pif", "sim", 4, 527},
		{"flaky-links", "forward", "sim", 4, 112},
		{"corrupt-then-reset", "forward", "udp", 4, 2},
		{"corrupt-then-reset", "mutex", "runtime", 4, 2},
	} {
		var out strings.Builder
		failed, err := run(&out, config{
			Scenario:  tc.scenario,
			Protocol:  tc.protocol,
			Substrate: tc.substrate,
			N:         tc.n,
			Seed:      tc.seed,
			Timeout:   time.Minute,
		})
		if err != nil {
			t.Fatalf("%+v: run: %v", tc, err)
		}
		if len(failed) > 0 {
			t.Fatalf("%+v: failed runs:\n%s\noutput:\n%s", tc, strings.Join(failed, "\n"), out.String())
		}
		if tc.substrate == "sim" {
			// The simulator has no links: it reports its scheduler's totals.
			if !strings.Contains(out.String(), "  totals: ") {
				t.Errorf("%+v: single-run output lacks the scheduler's totals:\n%s", tc, out.String())
			}
		} else {
			for node := 0; node < tc.n; node++ {
				if want := fmt.Sprintf("node %d: sent=", node); !strings.Contains(out.String(), want) {
					t.Errorf("%+v: single-run output lacks %q:\n%s", tc, want, out.String())
				}
			}
		}
		// Every scenario here but the adversary-free one corrupts in flight.
		corrupts, adversary := !strings.Contains(out.String(), " corrupts=0 "), tc.scenario != "corrupted-start"
		if !strings.Contains(out.String(), "  faults: drops=") || corrupts && !adversary ||
			!corrupts && adversary && tc.substrate == "sim" {
			t.Errorf("%+v: single-run output lacks the fault plane's totals, or they are not the plan's:\n%s", tc, out.String())
		}
		concurrentCorrupts = concurrentCorrupts || corrupts && tc.substrate != "sim"
		if strings.Contains(out.String(), "sent=0 ") {
			t.Errorf("%+v: a node reports no sends:\n%s", tc, out.String())
		}
	}
	if !concurrentCorrupts {
		t.Error("no concurrent run of a corrupting scenario reports a corruption: its totals are not the plan's")
	}
}

// TestFlakyForwardSimReplaysFromSeed pins the flaky-links forwarding
// seeds that failed on sim while its requests ran on goroutines of their
// own: seed 30 at every run at GOMAXPROCS 1, seed 12 about one run in
// five at GOMAXPROCS 2. Requests now replay from the seed, so every run
// passes and prints the same verdict, scheduler totals and fault totals
// at either GOMAXPROCS; only the wall time at the end of the verdict
// line may differ. Not parallel: GOMAXPROCS is the process's.
func TestFlakyForwardSimReplaysFromSeed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	wall := regexp.MustCompile(`\s+\S+$`)
	for _, seed := range []uint64{12, 30} {
		var first string
		for _, procs := range []int{1, 2, 1, 2} {
			runtime.GOMAXPROCS(procs)
			var out strings.Builder
			failed, err := run(&out, config{
				Scenario:  "flaky-links",
				Protocol:  "forward",
				Substrate: "sim",
				N:         4,
				Seed:      seed,
				Timeout:   time.Minute,
			})
			if err != nil || len(failed) > 0 {
				t.Fatalf("seed %d, GOMAXPROCS %d: run: %v %v\n%s", seed, procs, err, failed, out.String())
			}
			lines := strings.SplitN(out.String(), "\n", 2)
			got := wall.ReplaceAllString(lines[0], "") + "\n" + lines[1]
			if !strings.Contains(got, "\n  totals: ") || !strings.Contains(got, "\n  faults: ") {
				t.Fatalf("seed %d, GOMAXPROCS %d: no totals or faults line:\n%s", seed, procs, out.String())
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("seed %d, GOMAXPROCS %d: the run differs from the first:\n%s\nfirst:\n%s", seed, procs, got, first)
			}
		}
	}
}

func TestUnknownSelectorsRejected(t *testing.T) {
	for _, tc := range []struct {
		name, wantErr string
		cfg           config
	}{
		{"scenario", `unknown value "nope"`, config{Scenario: "nope", Protocol: "all", Substrate: "all", N: 3}},
		{"protocol", `unknown value "nope"`, config{Scenario: "all", Protocol: "nope", Substrate: "all", N: 3}},
		{"substrate", `unknown value "nope"`, config{Scenario: "all", Protocol: "all", Substrate: "nope", N: 3}},
		{"n=1", "need n >= 2", config{Scenario: "all", Protocol: "all", Substrate: "all", N: 1}},
		{"capacity=-1", "need capacity in 1..", config{Scenario: "all", Protocol: "all", Substrate: "all", N: 3, Capacity: -1}},
		{"capacity=127", "need capacity in 1..", config{Scenario: "all", Protocol: "all", Substrate: "all", N: 3, Capacity: 127}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			cfg.Seed, cfg.Timeout = 1, time.Second
			if _, err := run(&out, cfg); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("config %+v: err = %v, want one containing %q", cfg, err, tc.wantErr)
			}
		})
	}
}

// TestFailureDescriptorsAreReproducible pins the failure-line format the
// nightly uploads: a run with an impossible deadline must fail and
// produce a seed-carrying descriptor.
func TestFailureDescriptorsAreReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("deadline-forcing run skipped in -short mode")
	}
	var out strings.Builder
	failed, err := run(&out, config{
		Scenario:  "flaky-links",
		Protocol:  "pif",
		Substrate: "runtime",
		N:         3,
		Seed:      3,
		Timeout:   time.Nanosecond, // impossible deadline
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failed) != 1 {
		t.Fatalf("want 1 failure, got %v", failed)
	}
	for _, want := range []string{"scenario=flaky-links", "protocol=pif", "substrate=runtime", "seed=3"} {
		if !strings.Contains(failed[0], want) {
			t.Fatalf("descriptor %q missing %q", failed[0], want)
		}
	}
	// A failed run always prints its per-node counters and what the
	// fault plane did to it.
	if !strings.Contains(out.String(), "node 0: sent=") || !strings.Contains(out.String(), "  faults: drops=") {
		t.Fatalf("failed run printed no per-node counters or no fault totals:\n%s", out.String())
	}
}

// TestFailureDescriptorsCarryTopologyAndCapacity pins the descriptor
// format when -topology and -capacity are set: both appear, in the flags'
// own names, on the FAIL line and in the -failures line, so a failure
// replays on the same graph at the same bound.
func TestFailureDescriptorsCarryTopologyAndCapacity(t *testing.T) {
	var out strings.Builder
	failed, err := run(&out, config{
		Scenario:  "clean",
		Protocol:  "forward",
		Substrate: "sim",
		N:         4,
		Topology:  "tree",
		Capacity:  2,
		Seed:      5,
		Timeout:   time.Nanosecond, // impossible deadline
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failed) != 1 {
		t.Fatalf("want 1 failure, got %v\n%s", failed, out.String())
	}
	const want = "scenario=clean protocol=forward substrate=sim n=4 topology=tree capacity=2 seed=5 err="
	if !strings.HasPrefix(failed[0], want) {
		t.Fatalf("descriptor %q, want prefix %q", failed[0], want)
	}
	if !strings.Contains(out.String(), "FAIL clean                  forward sim      n=4 topology=tree capacity=2 seed=5 ") {
		t.Fatalf("FAIL line does not name topology and capacity:\n%s", out.String())
	}
	// With neither set, the descriptor is the five-field form.
	if got := (config{N: 3, Seed: 7}).knobs(); got != "n=3 seed=7" {
		t.Fatalf("knobs() = %q, want %q", got, "n=3 seed=7")
	}
}

// TestGraphWritesResolvedTopology: -graph - prints the graph a run would
// resolve from -topology, -n and -seed, in the format -topology reads
// back; a file gets the same text and a summary line naming a
// disconnected graph as such.
func TestGraphWritesResolvedTopology(t *testing.T) {
	want, err := snapstab.ResolveTopology("gnp:0.1", 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := writeGraph(&out, "-", "gnp:0.1", 12, 2); err != nil || out.String() != want.String() {
		t.Fatalf("-graph - printed %q (%v), want %q", out.String(), err, want.String())
	}
	file := filepath.Join(t.TempDir(), "graph.txt")
	out.Reset()
	if err := writeGraph(&out, file, "gnp:0.1", 12, 2); err != nil {
		t.Fatal(err)
	}
	back, err := snapstab.ResolveTopology(file, 12, 0)
	if err != nil || back.String() != want.String() {
		t.Fatalf("the file reads back as %q (%v), want %q", back.String(), err, want.String())
	}
	if line := fmt.Sprintf("wrote %s: 12 processes, %d edges (disconnected)\n", file, want.EdgeCount()); out.String() != line {
		t.Fatalf("summary %q, want %q", out.String(), line)
	}
}
