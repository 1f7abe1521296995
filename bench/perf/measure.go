package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/snapstab/snapstab/internal/stat"
)

func median(xs []float64) float64 { return stat.Summarize(xs).P50 }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// trimmedMean is the mean of xs without its lowest and highest tenth.
// Cold-cycle times are quantised by the timer tick into a few modes, so
// their median jumps from mode to mode between runs while a mean across
// the modes repeats; the trim keeps a stall out of it.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	return sum(s) / float64(len(s))
}

// refKernelQuiet is what refKernel takes on the calibration box while no
// neighbour of the shared host presses on the cache: the speed setup_s is
// stated at.
const refKernelQuiet = 1800 * time.Microsecond

var (
	refTable = make([]uint64, 1<<15) // 256 KiB
	refSink  uint64
)

type refNode struct {
	next *refNode
	v    [3]uint64
}

// refKernel is a fixed piece of work in the benchmark's own code, the
// yardstick of how fast the box computes right now: a map that churns,
// scattered reads and writes in a table the size of the L2 cache, small
// heap objects, a sort, and a stretch of pure arithmetic. On the shared
// calibration host arithmetic repeats within 2 % while allocation and
// cache misses cost up to 40 % more for seconds or minutes at a time, and
// the clusters' own code follows the same stretches; this mix tracked a
// sim-recover cold cycle best (CALIBRATION.md). It returns how long it took.
func refKernel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint32]uint32, 256)
	var head *refNode
	ints := make([]int, 0, 512)
	var acc uint64
	for i := 0; i < 20000; i++ {
		r := next()
		k := uint32(r) & 1023
		m[k] += uint32(r >> 40)
		if r&7 == 0 {
			delete(m, k^1)
		}
		refTable[r>>49] += r
		acc += refTable[(r>>30)&(1<<15-1)]
		if i&3 == 0 {
			head = &refNode{next: head, v: [3]uint64{r, acc, uint64(i)}}
			if i&255 == 0 {
				head = nil
			}
		}
		if len(ints) < cap(ints) {
			ints = append(ints, int(r>>20))
		} else {
			sort.Ints(ints)
			acc += uint64(ints[17])
			ints = ints[:0]
		}
	}
	for i := 0; i < 200000; i++ {
		acc += next() * 0x9e3779b97f4a7c15
	}
	for k, v := range m {
		acc += uint64(k) * uint64(v)
	}
	if head != nil {
		acc += head.v[0]
	}
	refSink += acc
	return time.Since(start)
}

// ratio is a/b, and 0 when the layer did no work (b == 0): a bypassed
// layer reads 0 on every one of its metrics.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterSet is one reading of an engine's cumulative counters, keyed by
// the name the per-layer metric carries.
type counterSet map[string]int64

func (c counterSet) minus(base counterSet) counterSet {
	out := make(counterSet, len(c))
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// procReading is the whole-process cost around one measured window.
type procReading struct {
	cpu       time.Duration // user + system
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
	heapSys   uint64
}

// since is the growth from base to p; heapSys stays as read at p.
func (p procReading) since(base procReading) procReading {
	p.cpu -= base.cpu
	p.mallocs -= base.mallocs
	p.allocated -= base.allocated
	p.gcPause -= base.gcPause
	return p
}

// cpuTime is the processor time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer or selector.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procReading{
		cpu:       cpuTime(),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcPause:   time.Duration(ms.PauseTotalNs),
		heapSys:   ms.HeapSys,
	}
}

// timerGranularityUS is the median oversleep of short sleeps: the floor
// under every timer-paced number this benchmark prints. Numbers taken on
// boxes where it differs must not be compared.
func timerGranularityUS() float64 {
	const ask = 50 * time.Microsecond
	over := make([]float64, 100)
	for i := range over {
		t := time.Now()
		time.Sleep(ask)
		over[i] = float64(time.Since(t)-ask) / 1e3
	}
	return median(over)
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// timeLoop reports the cost of one call of fn in nanoseconds and its
// heap allocations: the fastest of several batches inside budget, which
// discards batches a scheduler stall landed on.
func timeLoop(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	const batch = 2000
	for i := 0; i < batch/10; i++ {
		fn()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	best := math.Inf(1)
	batches := 0
	for start := time.Now(); batches < 3 || time.Since(start) < budget; batches++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		best = math.Min(best, float64(time.Since(t))/batch)
	}
	runtime.ReadMemStats(&ms)
	return best, float64(ms.Mallocs-mallocs) / float64(batches*batch)
}
