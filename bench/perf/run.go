package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"github.com/snapstab/snapstab/internal/stat"
)

// profile sizes one run. Only the full profile's numbers are results;
// the test's quick profile exists to exercise the code.
type profile struct {
	// window is how long the closed loop is measured.
	window time.Duration
	// Cold cycles (build, first request decided, Close) repeat until
	// setupBudget is spent, at least setupMin and at most setupMax times.
	setupBudget        time.Duration
	setupMin, setupMax int
	// micro is the budget of each direct-call loop of the traced pass.
	micro time.Duration
	// timeout bounds every request.
	timeout time.Duration
	// maxEvents is the room the traced pass preallocates for stamped
	// events (16 B each).
	maxEvents int
}

func fullProfile(seconds float64) profile {
	return profile{
		window:      time.Duration(seconds * float64(time.Second)),
		setupBudget: 2 * time.Second,
		setupMin:    7,
		setupMax:    300,
		micro:       30 * time.Millisecond,
		timeout:     10 * time.Second,
		maxEvents:   1 << 21,
	}
}

// window is everything one measured closed-loop window produced.
type window struct {
	tally   tally
	samples []sample // every request of the window, in issue order
	roots   []int32  // samples[i]'s root span (traced windows)
	latMS   []float64
	wall    time.Duration
	// busy is the summed latency of the verified decisions.
	busy time.Duration
	// counts is the engine counters' growth over the window; exact is
	// their growth over the first exactPrefix requests and exactBusy
	// those requests' summed latency (nil and 0 if the window ended
	// sooner or a request failed).
	counts, exact counterSet
	exactBusy     time.Duration
	corruptMS     []float64
	proc          procReading // growth over the window; heapSys as read at its end
	goroutines    int
	buildMS       float64
	closeMS       float64
}

// round runs one closed-loop round starting at request index first:
// width requests issued back to back, then awaited together. onPrepare,
// when not nil, is told when each untimed preparation ran.
func round(d *driver, first int, timeout time.Duration, out []sample, onPrepare func(i int, start, end time.Time)) {
	var ps [maxWidth]pending
	for k := 0; k < d.width; k++ {
		if d.prepare != nil {
			start := time.Now()
			d.prepare(first + k)
			if onPrepare != nil {
				onPrepare(first+k, start, time.Now())
			}
		}
		out[k] = sample{issue: time.Now()}
		ps[k] = d.issue(first + k)
		out[k].issued = time.Now()
		out[k].proc = ps[k].proc
	}
	awaitAll(ps[:d.width], out, timeout)
}

// measure builds w's cluster, warms it up with one unmeasured round, and
// runs the closed loop for dur. tr is nil with tracing off, unless the
// workload counts its sends by hook; events are stamped only inside the
// window.
func measure(w workload, in *inputs, p profile, dur time.Duration, tr *tracer) (window, error) {
	var win window
	var hook hookFn
	if tr != nil && (w.hookCounts || w.hookTrace) {
		hook = tr.hook
	}
	traced := tr != nil && tr.spansOn
	t := time.Now()
	d := w.build(in, hook)
	built := time.Now()
	win.buildMS = float64(built.Sub(t)) / 1e6
	if w.hookCounts {
		d.counters = tr.counters
	}
	if traced {
		tr.addSpan("facade.build", t, built, -1, -1)
	}

	var ss [maxWidth]sample
	round(d, 0, p.timeout, ss[:], nil)
	for _, s := range ss[:d.width] {
		win.tally.record(s.err)
	}
	next := d.width
	win.goroutines = runtime.NumGoroutine()

	onPrepare := func(i int, start, end time.Time) {
		win.corruptMS = append(win.corruptMS, float64(end.Sub(start))/1e6)
		if traced {
			tr.addSpan("facade.corrupt", start, end, -1, int32(i-d.width))
		}
	}
	if traced {
		tr.recording.Store(len(tr.recs) > 0)
	}
	procBefore := readProc()
	before := d.counters()
	start := time.Now()
	for time.Since(start) < dur {
		round(d, next, p.timeout, ss[:], onPrepare)
		next += d.width
		for _, s := range ss[:d.width] {
			win.tally.record(s.err)
			win.samples = append(win.samples, s)
			if s.err == nil {
				win.latMS = append(win.latMS, float64(s.ended.Sub(s.issue))/1e6)
				win.busy += s.ended.Sub(s.issue)
			}
			if traced {
				req := int32(len(win.samples) - 1)
				root := tr.addSpan("request", s.issue, s.ended, -1, req)
				tr.addSpan("facade.issue", s.issue, s.issued, root, req)
				win.roots = append(win.roots, root)
			}
		}
		if w.exactPrefix > 0 && len(win.samples) == w.exactPrefix && win.tally.failed == 0 {
			win.exact, win.exactBusy = d.counters().minus(before), win.busy
		}
	}
	win.wall = time.Since(start)
	win.counts = d.counters().minus(before)
	win.proc = readProc().since(procBefore)
	if traced {
		tr.recording.Store(false)
	}

	t = time.Now()
	err := d.c.Close()
	closed := time.Now()
	win.closeMS = float64(closed.Sub(t)) / 1e6
	if traced {
		tr.addSpan("facade.close", t, closed, -1, -1)
	}
	if err != nil {
		return win, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return win, nil
}

// coldRun is what the repeated cold cycles of one run measured, one entry
// per kept cycle.
type coldRun struct {
	cycleS  []float64 // build -> first request decided and verified -> Close
	busyS   []float64 // processor time the process used meanwhile
	refS    []float64 // refKernel, right before the cycle
	buildMS []float64
	closeMS []float64
	tally   tally
}

// coldCycles times build -> first request decided and verified -> Close
// from nothing, repeatedly, with a collection right before each cycle so
// that no cycle pays for its predecessor's garbage and every cycle starts
// with both processors awake, and before that refKernel as the yardstick
// of the box's speed at that moment. Every cycle draws its own inputs.
// The first tenth (at least one) is discarded as warm-up of the process
// itself.
func coldCycles(w workload, in *inputs, p profile) (coldRun, error) {
	var c coldRun
	var ss [maxWidth]sample
	start := time.Now()
	for n := 0; n < p.setupMin || (n < p.setupMax && time.Since(start) < p.setupBudget); n++ {
		runtime.GC() // or refKernel pays for collecting the last cycle's garbage
		refKernel()  // wakes the processor and its caches up after the last cycle's sleeps
		ref := refKernel()
		runtime.GC()
		busy := cpuTime()
		t0 := time.Now()
		d := w.build(in.cycle(n), nil)
		t1 := time.Now()
		round(d, 0, p.timeout, ss[:], nil)
		t2 := time.Now()
		if err := d.c.Close(); err != nil {
			return c, fmt.Errorf("%s: close: %w", w.name, err)
		}
		t3 := time.Now()
		busy = cpuTime() - busy
		for _, s := range ss[:d.width] {
			c.tally.record(s.err)
		}
		c.cycleS = append(c.cycleS, t3.Sub(t0).Seconds())
		c.busyS = append(c.busyS, busy.Seconds())
		c.refS = append(c.refS, ref.Seconds())
		c.buildMS = append(c.buildMS, float64(t1.Sub(t0))/1e6)
		c.closeMS = append(c.closeMS, float64(t3.Sub(t2))/1e6)
	}
	skip := max(1, len(c.cycleS)/10)
	c.cycleS, c.busyS, c.refS = c.cycleS[skip:], c.busyS[skip:], c.refS[skip:]
	c.buildMS, c.closeMS = c.buildMS[skip:], c.closeMS[skip:]
	return c, nil
}

// setupMetrics states the cold cycle at the box's quiet speed. The shared
// host slows computing down for seconds or minutes at a time (a cold
// cycle of sim-recover read 8.4 to 12.7 ms within one quarter of an hour)
// while timers keep their pace, so the part of the cycle the process spent
// computing is scaled by refKernelQuiet over what refKernel took between
// the cycles, and the part it spent asleep is left as measured. On a quiet
// box the factor is 1 and setup_s is the wall time. The wall time, the
// computing share and the yardstick are reported beside it.
func setupMetrics(out *outcome, c coldRun) {
	v, n := out.values, out.samples
	wall := trimmedMean(c.cycleS)
	share := math.Min(1, ratio(sum(c.busyS), sum(c.cycleS)))
	ref := median(c.refS)
	v["setup_s"] = wall * (1 - share + share*ratio(refKernelQuiet.Seconds(), ref))
	v["facade.cold_cycle_ms"] = wall * 1e3
	v["facade.cold_busy_share"] = share
	v["env.ref_kernel_ms"] = ref * 1e3
	n["setup_s"], n["facade.cold_cycle_ms"] = len(c.cycleS), len(c.cycleS)
}

// outcome is one workload's run: its metric values by name, the sample
// count behind each timing, and the request tally.
type outcome struct {
	workload string
	values   map[string]float64
	samples  map[string]int
	tally    tally
	took     time.Duration
}

// runWorkload runs w once. With tracing off: the end-to-end metrics, and
// what the whole process paid, from one full window. With trace: the
// per-layer metrics from a third of the window untraced, two thirds
// traced, and the direct calls. traceDir is where the traced pass writes
// trace.json.
func runWorkload(w workload, seed uint64, p profile, trace bool, traceDir string, log io.Writer) (outcome, error) {
	began := time.Now()
	in := newInputs(seed, w.noteLen)
	out := outcome{workload: w.name, values: map[string]float64{}, samples: map[string]int{}}

	cold := p
	if trace {
		cold.setupBudget = 0 // setupMin cycles are enough for the façade spans' medians
	}
	cycles, err := coldCycles(w, in, cold)
	if err != nil {
		return out, err
	}
	out.tally.add(cycles.tally)
	setupMetrics(&out, cycles)

	var counting *tracer
	if w.hookCounts {
		counting = newTracer(0, false)
	}
	if !trace {
		win, err := measure(w, in, p, p.window, counting)
		if err != nil {
			return out, err
		}
		out.tally.add(win.tally)
		endToEndMetrics(&out, w, win)
		procMetrics(&out, win)
		out.took = time.Since(began)
		return out, nil
	}

	// A third of the window untraced: the base of the overhead ratio, and
	// the whole-process costs, which must not include the tracer's.
	base, err := measure(w, in, p, p.window/3, counting)
	if err != nil {
		return out, err
	}
	out.tally.add(base.tally)
	maxEvents := 0
	if w.hookTrace {
		maxEvents = p.maxEvents
	}
	tr := newTracer(maxEvents, true)
	win, err := measure(w, in, p, p.window-p.window/3, tr)
	if err != nil {
		return out, err
	}
	out.tally.add(win.tally)
	reqs := tr.derive(w.engine, win.samples, win.roots)
	summary := summarise(tr.spans)
	perLayerMetrics(&out, w, win, reqs, summary, append(cycles.buildMS, win.buildMS), append(cycles.closeMS, win.closeMS))
	procMetrics(&out, base)
	out.values["trace.overhead_ratio"] = ratio(median(win.latMS), median(base.latMS))
	out.values["trace.spans"] = float64(len(tr.spans))
	if err := directCallMetrics(out.values, in, w, p.micro); err != nil {
		return out, err
	}
	file := traceFile{Workload: w.name, Seed: seed, SpansTotal: len(tr.spans), Summary: summary, Spans: tr.spans}
	if err := writeTrace(filepath.Join(traceDir, "trace.json"), file); err != nil {
		return out, fmt.Errorf("write trace: %w", err)
	}
	printSummary(log, summary)
	out.took = time.Since(began)
	return out, nil
}

func endToEndMetrics(out *outcome, w workload, win window) {
	v, n := out.values, out.samples
	counts, per, _ := perRequestCounts(w, win)
	v["frames_per_req"] = ratio(float64(counts["frames"]), per)
	v[w.engine+".sends_per_req"] = ratio(float64(counts["sends"]), per) // for the reader: the per-layer list has it
	n["frames_per_req"] = int(per)
}

// perRequestCounts picks the counter growth that per-request counts
// divide, the divisor, and those requests' summed latency: the exact
// prefix where the workload has one and the window reached it, the whole
// window's verified decisions otherwise.
func perRequestCounts(w workload, win window) (counterSet, float64, time.Duration) {
	if win.exact != nil {
		return win.exact, float64(w.exactPrefix), win.exactBusy
	}
	return win.counts, float64(len(win.latMS)), win.busy
}

func perLayerMetrics(out *outcome, w workload, win window, reqs []requestTrace, summary []spanSummary, buildMS, closeMS []float64) {
	v := out.values
	counts, per, busy := perRequestCounts(w, win)
	perReq := func(key string) float64 { return ratio(float64(counts[key]), per) }
	spans := map[string]spanSummary{}
	for _, s := range summary {
		spans[s.Name] = s
	}

	v["facade.build_ms"] = median(buildMS)
	v["facade.close_ms"] = median(closeMS)
	v["facade.corrupt_ms"] = median(win.corruptMS)
	v["facade.issue_us"] = spans["facade.issue"].P50US
	v["facade.await_lag_us"] = spans["facade.await_lag"].P50US

	var rounds, startToDecide, useful, turnarounds []float64
	for _, r := range reqs {
		perPeer := float64(r.sends) / (pifN - 1)
		rounds = append(rounds, perPeer)
		startToDecide = append(startToDecide, r.startToDecide/1e6)
		useful = append(useful, ratio(float64(r.sends), float64(r.delivers)))
		turnarounds = append(turnarounds, r.turnarounds...)
	}
	v["pif.rounds_per_req"] = median(rounds)
	v["pif.start_to_decide_ms"] = median(startToDecide)
	v["pif.round_ms"] = ratio(median(startToDecide), median(rounds))
	v["pif.useful_deliver_ratio"] = median(useful)
	out.samples["pif.rounds_per_req"] = len(reqs)

	e := w.engine
	sd := spans["pif.start_to_decide"]
	switch e {
	case "sim":
		for _, key := range []string{"steps", "sends", "deliveries", "send_losses", "rounds"} {
			v["sim."+key+"_per_req"] = perReq(key)
		}
		v["sim.ns_per_step"] = ratio(float64(busy), float64(counts["steps"]))
	case "runtime":
		v["runtime.sends_per_req"] = perReq("sends")
		v["runtime.loses_per_req"] = perReq("loses")
	default:
		v[e+".sends_per_req"] = perReq("sends")
		v[e+".datagrams_per_req"] = perReq("frames")
		v[e+".msgs_per_datagram"] = ratio(float64(counts["sends"]), float64(counts["frames"]))
		v[e+".msgs_per_send_syscall"] = ratio(float64(counts["sends"]), float64(counts["send_syscalls"]))
		v[e+".msgs_per_recv_syscall"] = ratio(float64(counts["recvs"]), float64(counts["recv_syscalls"]))
		v[e+".send_drops_per_req"] = perReq("send_drops")
		v[e+".mailbox_drops_per_req"] = perReq("mailbox_drops")
		if e == "tcp" {
			v["tcp.redials"] = float64(counts["redials"])
		}
		v["fault.drops_per_req"] = perReq("fault_drops")
		v["fault.dups_per_req"] = perReq("fault_dups")
		v["fault.reorders_per_req"] = perReq("fault_reorders")
	}
	if e != "sim" {
		v[e+".turnaround_us"] = median(turnarounds) / 1e3
		v[e+".timer_wait_share"] = ratio(sd.SelfMS, sd.TotalMS)
		out.samples[e+".turnaround_us"] = len(turnarounds)
	}

}

// procMetrics reports what the whole process paid around one untraced
// window, and the request timings.
func procMetrics(out *outcome, win window) {
	v := out.values
	decided := float64(len(win.latMS))
	v["proc.cpu_ms_per_req"] = ratio(float64(win.proc.cpu)/1e6, decided)
	v["proc.allocs_per_req"] = ratio(float64(win.proc.mallocs), decided)
	v["proc.alloc_kb_per_req"] = ratio(float64(win.proc.allocated)/1024, decided)
	v["proc.gc_pause_ms"] = float64(win.proc.gcPause) / 1e6
	v["proc.heap_peak_mb"] = float64(win.proc.heapSys) / (1 << 20)
	v["proc.goroutines"] = float64(win.goroutines)
	v["proc.req_per_s"] = ratio(decided, win.wall.Seconds())
	lat := stat.Summarize(win.latMS)
	v["proc.req_p50_ms"], v["proc.req_p90_ms"], v["proc.req_p99_ms"] = lat.P50, lat.P90, lat.P99
	for _, name := range []string{"proc.req_per_s", "proc.req_p50_ms", "proc.req_p90_ms", "proc.req_p99_ms"} {
		out.samples[name] = lat.N
	}
}

func directCallMetrics(v map[string]float64, in *inputs, w workload, budget time.Duration) error {
	if err := wireMetrics(v, ".b0", 0, budget); err != nil {
		return err
	}
	if err := wireMetrics(v, ".b1k", 1024, budget); err != nil {
		return err
	}
	pifMetrics(v, budget)
	if w.noteLen > 0 {
		order := in.order(0)
		return codecMetrics(v, &order, budget)
	}
	return nil
}

func printSummary(log io.Writer, summary []spanSummary) {
	fmt.Fprintf(log, "# trace summary: %-22s %9s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_us")
	for _, s := range summary {
		fmt.Fprintf(log, "# trace summary: %-22s %9d %12.3f %12.3f %10.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50US)
	}
}
