// Command perf is the repository's request→decision benchmark: five
// closed-loop workloads over the public snapstab façade, each answer
// verified, reported as end-to-end metrics (tracing off) or per-layer
// metrics (a traced pass plus direct calls into single layers). README.md
// in this directory is the glossary; BENCHMARK.json at the repository
// root is the contract.
//
//	perf -workload udp-serial -seed 1 -seconds 24 -trace 0
//
// prints human-readable "workload/metric value unit" lines and, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Without -workload every workload runs
// in turn.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkSpec is BENCHMARK.json: the names, units and bounds this
// program must print, no more and no fewer (perf_test.go holds it to
// that).
type benchmarkSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// directory above it, and returns it with the directory it was found in.
func loadSpec() (benchmarkSpec, string, error) {
	var spec benchmarkSpec
	dir, err := os.Getwd()
	if err != nil {
		return spec, "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			if err := json.Unmarshal(data, &spec); err != nil {
				return spec, "", fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return spec, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return spec, "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return spec, "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// reported is the last line of standard output.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs an outcome with the metric list of its pass. Every listed
// metric is reported: one whose layer the workload bypasses reads 0.
// Values of the other pass's list are printed for the reader and left
// out of the result; a value under a name neither list has is a bug in
// this program.
func report(o outcome, specs, others []metricSpec) (reported, error) {
	r := reported{
		Correct:   o.tally.failed == 0 && o.tally.attempted > 0,
		Attempted: o.tally.attempted,
		Failed:    o.tally.failed,
		Metrics:   make(map[string]reportedValue, len(specs)),
	}
	for _, s := range specs {
		r.Metrics[s.Name] = reportedValue{Value: o.values[s.Name], Unit: s.Unit}
	}
	known := make(map[string]bool, len(specs)+len(others))
	for _, s := range append(append([]metricSpec(nil), specs...), others...) {
		known[s.Name] = true
	}
	for name := range o.values {
		if !known[name] {
			return r, fmt.Errorf("metric %q is not in BENCHMARK.json", name)
		}
	}
	return r, nil
}

// printOutcome writes the human-readable lines: one per metric the
// workload produced, with the sample count beside each timing.
func printOutcome(w io.Writer, o outcome, units map[string]string) {
	names := make([]string, 0, len(o.values))
	for name := range o.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s/%s %.6g %s", o.workload, name, o.values[name], units[name])
		if n, ok := o.samples[name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s/fail_ratio %.6g ratio attempted=%d failed=%d\n", o.workload, o.tally.failRatio(), o.tally.attempted, o.tally.failed)
	for _, err := range o.tally.firstErrs {
		fmt.Fprintf(w, "# %s: failed request: %v\n", o.workload, err)
	}
	fmt.Fprintf(w, "# %s took %.1f s\n", o.workload, o.took.Seconds())
}

func printHeader(w io.Writer, seed uint64, seconds float64, trace bool) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# snapstab bench/perf: seed=%d seconds=%g trace=%t\n", seed, seconds, trace)
	fmt.Fprintf(w, "# closed loop, one generator goroutine, loopback only, no injected delay\n")
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease(), commit)
	fmt.Fprintf(w, "# env.timer_granularity_us=%.1f (median oversleep of 50us sleeps; never compare runs across boxes where it differs)\n",
		timerGranularityUS())
}

// suite runs the workloads in turn and prints each one's lines and
// result line. It returns the outcomes and whether every answer checked.
func suite(wls []workload, seed uint64, p profile, trace bool, spec benchmarkSpec, root string, w io.Writer) ([]outcome, bool, error) {
	specs, others := spec.EndToEnd, spec.PerLayer
	if trace {
		specs, others = others, specs
	}
	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), specs...), others...) {
		units[m.Name] = m.Unit
	}
	var outs []outcome
	allCorrect := true
	for _, wl := range wls {
		o, err := runWorkload(wl, seed, p, trace, filepath.Join(root, spec.Paths[0], "out"), w)
		if err != nil {
			return nil, false, err
		}
		r, err := report(o, specs, others)
		if err != nil {
			return nil, false, err
		}
		printOutcome(w, o, units)
		line, err := json.Marshal(r)
		if err != nil {
			return nil, false, err
		}
		fmt.Fprintf(w, "%s\n", line)
		outs = append(outs, o)
		allCorrect = allCorrect && r.Correct
	}
	return outs, allCorrect, nil
}

// selfcheck runs the untraced suite twice back to back and names every
// end-to-end pair that differs between the two runs by more than its
// bound, in the worse direction; a message count taken over an exact
// prefix (sim-recover's) must not differ at all.
func selfcheck(wls []workload, seed uint64, p profile, spec benchmarkSpec, root string, w io.Writer) (bool, error) {
	var runs [2][]outcome
	for i := range runs {
		outs, correct, err := suite(wls, seed, p, false, spec, root, w)
		if err != nil {
			return false, err
		}
		if !correct {
			return false, nil
		}
		runs[i] = outs
	}
	ok := true
	for i, a := range runs[0] {
		b := runs[1][i]
		for _, m := range spec.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "ok"
			if worse > *m.Bound {
				verdict, ok = "FAIL", false
			}
			if wls[i].exactPrefix > 0 && m.Name == "frames_per_req" && va != vb {
				verdict, ok = "FAIL (must repeat bit for bit)", false
			}
			fmt.Fprintf(w, "selfcheck %s/%s %.6g -> %.6g worse by %+.4f bound %.2f %s\n", a.workload, m.Name, va, vb, worse, *m.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	check := flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two runs against the bounds of BENCHMARK.json")
	flag.Parse()

	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *check, os.Stdout))
}

func run(only string, seed uint64, seconds float64, trace, check bool, w io.Writer) int {
	began := time.Now()
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 2
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	var wls []workload
	for _, wl := range workloads {
		if only == "" || only == wl.name {
			wls = append(wls, wl)
		}
	}
	if len(wls) == 0 {
		fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", only)
		return 2
	}
	printHeader(w, seed, seconds, trace)

	p := fullProfile(seconds)
	var ok bool
	if check {
		ok, err = selfcheck(wls, seed, p, spec, root, w)
	} else {
		_, ok, err = suite(wls, seed, p, trace, spec, root, w)
	}
	fmt.Fprintf(os.Stderr, "# total %.1f s\n", time.Since(began).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
	}
	return exitCode(ok, err)
}

// exitCode is 0 only for a run that completed with every answer verified:
// 1 says a request failed, timed out or answered wrongly (or a selfcheck
// pair moved past its bound), 2 that the run itself broke.
func exitCode(ok bool, err error) int {
	switch {
	case err != nil:
		return 2
	case !ok:
		return 1
	}
	return 0
}
