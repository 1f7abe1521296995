package main

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestGauntletOnSim runs the whole scenario library against every
// cluster type on the deterministic substrate — fast, reproducible, and
// exactly what the nightly workflow runs at larger scale.
func TestGauntletOnSim(t *testing.T) {
	var out strings.Builder
	failed, err := run(&out, config{
		Scenario:  "all",
		Protocol:  "all",
		Substrate: "sim",
		N:         3,
		Seed:      1,
		Timeout:   time.Minute,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(failed) > 0 {
		t.Fatalf("failed runs:\n%s\noutput:\n%s", strings.Join(failed, "\n"), out.String())
	}
	// 7 scenarios x 7 protocols.
	if !strings.Contains(out.String(), "49/49 runs passed") {
		t.Fatalf("unexpected summary:\n%s", out.String())
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
// The four flaky-links forwarding runs are the seeds on which the
// runtime's former channel, which duplicated and overtook, delivered an
// item twice (11, 21, 23) or wedged a send until its deadline (32). The
// corrupt-then-reset runs date from when in-flight corruption forged
// payloads: forwarding on sim exhausted its step budget on seeds 1, 3, 20
// and 32, forwarding ran with the plan's corruption zeroed on the
// concurrent substrates, and mutex there ran with its violation log
// unread.
func TestGauntletOneConcurrentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent gauntlet skipped in -short mode")
	}
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
		for node := 0; node < tc.n; node++ {
			if want := fmt.Sprintf("node %d: sent=", node); !strings.Contains(out.String(), want) {
				t.Errorf("%+v: single-run output lacks %q:\n%s", tc, want, out.String())
			}
		}
		// Every scenario here but the adversary-free one corrupts in flight.
		if !strings.Contains(out.String(), "  faults: drops=") ||
			strings.Contains(out.String(), " corrupts=0 ") != (tc.scenario == "corrupted-start") {
			t.Errorf("%+v: single-run output lacks the fault plane's totals, or they are not the plan's:\n%s", tc, out.String())
		}
		// The simulator has no transport: its per-node counters are zero.
		if tc.substrate != "sim" && strings.Contains(out.String(), "sent=0 ") {
			t.Errorf("%+v: a node reports no sends:\n%s", tc, out.String())
		}
	}
}

func TestUnknownSelectorsRejected(t *testing.T) {
	var out strings.Builder
	for _, cfg := range []config{
		{Scenario: "nope", Protocol: "all", Substrate: "all", N: 3, Seed: 1, Timeout: time.Second},
		{Scenario: "all", Protocol: "nope", Substrate: "all", N: 3, Seed: 1, Timeout: time.Second},
		{Scenario: "all", Protocol: "all", Substrate: "nope", N: 3, Seed: 1, Timeout: time.Second},
		{Scenario: "all", Protocol: "all", Substrate: "all", N: 1, Seed: 1, Timeout: time.Second},
	} {
		if _, err := run(&out, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
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
