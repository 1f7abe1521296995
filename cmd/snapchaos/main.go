// Command snapchaos is the chaos gauntlet: it runs every cluster type of
// the façade against a library of named adversarial-network scenarios —
// on any (or every) execution substrate — and asserts the
// snap-stabilization specification for each request it starts.
//
// The first two scenarios are the paper's own setting, with no adversary
// on the network: a clean start, and every variable corrupted before the
// first request. Each of the others is a seeded core.FaultPlan (installed
// through snapstab.WithFaults) describing one shape of network adversity:
// flaky links, a split-brain partition that heals, a duplicate storm,
// in-flight corruption (every garbled message is discarded: a loss) on
// top of a corrupted initial configuration, or a rolling crash-restart
// sweep. The paper's guarantee is that EVERY started
// request satisfies its specification from an ARBITRARY configuration
// under loss, duplication, and reordering; snapchaos is that claim run in
// anger. Assertions are end-to-end spec projections: PIF feedback is
// verified value-for-value (on the deterministic substrate additionally
// by the armed internal/spec Specification 1 checker), the typed cluster
// must echo a 4KiB JSON struct payload byte-identically through the
// codec layer, IDs-Learning tables and snapshot views against ground
// truth, mutual exclusion through the internal/spec MutexChecker's
// violation log, and reset against full acknowledgment.
//
// Usage:
//
//	snapchaos                                  # everything × everything
//	snapchaos -scenario split-brain -substrate udp
//	snapchaos -protocol mutex -n 5 -seed 7
//	snapchaos -scenario corrupted-start -protocol forward -substrate tcp -topology tree
//	snapchaos -substrate sim -capacity 2
//	snapchaos -list
//	snapchaos -topology gnp:0.3 -n 16 -seed 7 -graph graph.txt
//
// -graph FILE writes the -topology graph, resolved for -n and -seed as a
// run resolves it, to FILE ("-" for stdout) in the graph.txt format every
// -topology flag reads, and exits: one command line, one graph.
//
// -capacity c runs every cluster at the known channel bound c
// (snapstab.WithCapacity); 0 keeps the default, the paper's c = 1 on
// every substrate.
//
// A selection of exactly one run (one scenario, one protocol, one
// substrate) also prints its counters and the fault plane's totals, as
// does any failed run: every node's transport counters on runtime, udp
// and tcp, the scheduler's totals on sim. The drop columns are the first
// diagnostic for a timeout.
//
// Exit status 1 when any run fails; -failures FILE appends one
// reproduction line per failure (scenario, protocol, substrate, n, the
// topology and capacity when set, seed), in the flags' own names, so CI
// can upload failing seeds as artifacts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/window"
)

func main() {
	var (
		scenarioF  = flag.String("scenario", "all", "scenario to run (-list to enumerate), or all")
		protocolF  = flag.String("protocol", "all", "cluster type: "+strings.Join(snapstab.Protocols, ", ")+", or all")
		substrateF = flag.String("substrate", "all", "execution substrate: sim, runtime, udp, tcp, or all")
		n          = flag.Int("n", 4, "number of processes (>= 2)")
		topologyF  = flag.String("topology", "", "route over this graph: a family name (complete, ring, line, star, tree, gnp:<p>) or a graph.txt file; default = each protocol's native graph")
		capacity   = flag.Int("capacity", 0, "known channel capacity bound c (0 = the default, c = 1)")
		seed       = flag.Uint64("seed", 1, "root seed for faults, corruption, and the sim scheduler")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-run deadline")
		failures   = flag.String("failures", "", "append failing run descriptors to this file")
		list       = flag.Bool("list", false, "list scenarios and exit")
		graph      = flag.String("graph", "", "write the -topology graph, resolved for -n and -seed, to this file (- for stdout) and exit")
	)
	flag.Parse()

	if *graph != "" {
		if err := writeGraph(os.Stdout, *graph, *topologyF, *n, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "snapchaos:", err)
			os.Exit(2)
		}
		return
	}

	if *list {
		for _, sc := range scenarios {
			fmt.Printf("%-22s %s\n", sc.name, sc.desc)
		}
		return
	}
	failed, err := run(os.Stdout, config{
		Scenario:  *scenarioF,
		Protocol:  *protocolF,
		Substrate: *substrateF,
		N:         *n,
		Topology:  *topologyF,
		Capacity:  *capacity,
		Seed:      *seed,
		Timeout:   *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapchaos:", err)
		os.Exit(2)
	}
	if len(failed) > 0 {
		if *failures != "" {
			f, err := os.OpenFile(*failures, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "snapchaos: failures file:", err)
			} else {
				for _, line := range failed {
					fmt.Fprintln(f, line)
				}
				f.Close()
			}
		}
		fmt.Fprintf(os.Stderr, "snapchaos: %d run(s) FAILED\n", len(failed))
		os.Exit(1)
	}
}

// writeGraph writes the topology spec resolves to for n processes and
// seed, in the graph.txt format every -topology flag reads, to the file
// out ("-" for w); a file's summary line goes to w.
func writeGraph(w io.Writer, out, spec string, n int, seed uint64) error {
	if n < 2 {
		return fmt.Errorf("need n >= 2, got %d", n)
	}
	topo, err := snapstab.ResolveTopology(spec, n, seed)
	if err != nil {
		return err
	}
	if out == "-" {
		_, err := io.WriteString(w, topo.String())
		return err
	}
	if err := os.WriteFile(out, []byte(topo.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d processes, %d edges", out, topo.N(), topo.EdgeCount())
	if !topo.Connected() {
		// G(n, p) may come out disconnected; cluster-wide protocols
		// cannot span such a graph, so say so where it is visible.
		fmt.Fprint(w, " (disconnected)")
	}
	fmt.Fprintln(w)
	return nil
}

// config selects what the gauntlet runs.
type config struct {
	Scenario, Protocol, Substrate string
	N                             int
	// Topology is the -topology flag value ("" = each protocol's native
	// graph); Topo is its resolved form.
	Topology string
	Topo     snapstab.Topology
	// Capacity is the -capacity flag value (0 = the default, c = 1).
	Capacity int
	Seed     uint64
	Timeout  time.Duration
}

// knobs names the settings a run shares with every other run of the
// selection, in the flags' own names: n, the topology and capacity when
// set, and the seed. A run's line and its failure descriptor carry them,
// so either replays on the same graph at the same bound.
func (c config) knobs() string {
	s := fmt.Sprintf("n=%d", c.N)
	if c.Topology != "" {
		s += " topology=" + c.Topology
	}
	if c.Capacity != 0 {
		s += fmt.Sprintf(" capacity=%d", c.Capacity)
	}
	return s + fmt.Sprintf(" seed=%d", c.Seed)
}

// expand resolves an "all"-able flag value against the known set.
func expand(val string, known []string) ([]string, error) {
	if val == "all" {
		return known, nil
	}
	for _, k := range known {
		if k == val {
			return []string{val}, nil
		}
	}
	return nil, fmt.Errorf("unknown value %q (want one of %s, or all)", val, strings.Join(known, ", "))
}

// run executes the selected slice of the gauntlet, printing one line per
// run, and returns the reproduction descriptors of the failures.
func run(w io.Writer, cfg config) (failed []string, err error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("need n >= 2, got %d", cfg.N)
	}
	if cfg.Capacity < 0 || cfg.Capacity > window.MaxCapacity {
		return nil, fmt.Errorf("need capacity in 1..%d, or 0 for the default, got %d", window.MaxCapacity, cfg.Capacity)
	}
	scNames := make([]string, len(scenarios))
	for i, sc := range scenarios {
		scNames[i] = sc.name
	}
	scs, err := expand(cfg.Scenario, scNames)
	if err != nil {
		return nil, err
	}
	prots, err := expand(cfg.Protocol, snapstab.Protocols)
	if err != nil {
		return nil, err
	}
	if cfg.Topology != "" {
		topo, err := snapstab.ResolveTopology(cfg.Topology, cfg.N, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Topo = topo
		fmt.Fprintf(w, "topology %s: %d processes, %d edges\n", cfg.Topology, topo.N(), topo.EdgeCount())
		// An explicit graph narrows the matrix to the protocols that can
		// route over it: the fully-connected protocols need the complete
		// graph, forwarding needs a tree. Narrowing "all" is silent;
		// asking for an unsupported combination by name is an error.
		var supported []string
		for _, p := range prots {
			if snapstab.CheckTopology(p, topo) == nil {
				supported = append(supported, p)
			}
		}
		if len(supported) == 0 {
			return nil, fmt.Errorf("no selected protocol can run over topology %q", cfg.Topology)
		}
		prots = supported
	}
	subs, err := expand(cfg.Substrate, substrateNames)
	if err != nil {
		return nil, err
	}

	total := 0
	single := len(scs)*len(subs)*len(prots) == 1
	for _, sc := range scenarios {
		if !slices.Contains(scs, sc.name) {
			continue
		}
		for _, sub := range subs {
			for _, prot := range prots {
				total++
				start := time.Now()
				got, runErr := runOne(sc, prot, sub, cfg)
				elapsed := time.Since(start).Round(time.Millisecond)
				if runErr != nil {
					fmt.Fprintf(w, "FAIL %-22s %-6s %-8s %s %8s  %v\n",
						sc.name, prot, sub, cfg.knobs(), elapsed, runErr)
					failed = append(failed, fmt.Sprintf(
						"scenario=%s protocol=%s substrate=%s %s err=%q",
						sc.name, prot, sub, cfg.knobs(), runErr))
				} else {
					fmt.Fprintf(w, "ok   %-22s %-6s %-8s %s %8s\n",
						sc.name, prot, sub, cfg.knobs(), elapsed)
				}
				if single || runErr != nil {
					got.print(w)
				}
			}
		}
	}
	fmt.Fprintf(w, "%d/%d runs passed\n", total-len(failed), total)
	return failed, nil
}
