package snapstab

// White-box tests of the request path: a request is a condition
// registered at its process, not a goroutine, and requests at one
// process are served in order.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// held submits a request at process p whose condition holds only once
// release is set: a request that stays in flight as long as the test
// wants, ahead of any request issued after it at p.
func held(c *clusterCore, p int, release *atomic.Bool) *Request {
	r := c.newRequest()
	c.start(r, p, "held", func(core.Env) bool { return release.Load() }, func(core.Env) bool { return true }, nil)
	return r
}

// fewestGoroutines is the least goroutine count of a few samples a tenth
// of a millisecond apart: an in-memory node's timer callback runs on a
// goroutine of its own for a moment, and a sample may catch it.
func fewestGoroutines() int {
	least := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(100 * time.Microsecond)
		least = min(least, runtime.NumGoroutine())
	}
	return least
}

// requestGoroutines returns the stacks of the goroutines parked with a
// frame of the façade's request path on them.
func requestGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var found []string
	for _, stack := range strings.Split(string(buf), "\n\n") {
		running := strings.Contains(stack, "[running]") || strings.Contains(stack, "[runnable]")
		if !running && strings.Contains(stack, "snapstab.(*clusterCore)") {
			found = append(found, stack)
		}
	}
	return found
}

// TestRequestOwnsNoGoroutine: issuing a request starts no goroutine. On
// Runtime the goroutine count while a request is in flight is the count
// before it was issued, and after 1,000 broadcasts it is the count after
// none; on every concurrent substrate no goroutine is parked on the
// façade's request path while one is in flight. Not parallel: both
// readings are the whole process's.
func TestRequestOwnsNoGoroutine(t *testing.T) {
	for _, s := range []struct {
		name string
		sub  func() Substrate
	}{{"runtime", Runtime}, {"udp", UDP}, {"tcp", TCP}} {
		t.Run(s.name, func(t *testing.T) {
			c := NewPIFCluster(3, WithSubstrate(s.sub()))
			defer c.Close()
			if _, err := c.Broadcast(0, "warm", 0); err != nil {
				t.Fatal(err)
			}
			idle := fewestGoroutines()
			var release atomic.Bool
			r := held(&c.clusterCore, 1, &release)
			if during := fewestGoroutines(); s.name == "runtime" && during != idle {
				t.Errorf("%d goroutines with a request in flight, %d before it was issued", during, idle)
			}
			if found := requestGoroutines(); len(found) > 0 {
				t.Errorf("%d goroutines parked on the request path:\n\n%s", len(found), strings.Join(found, "\n\n"))
			}
			release.Store(true)
			if err := r.Wait(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			if s.name != "runtime" {
				return
			}
			for i := 0; i < 1000; i++ {
				if _, err := c.Broadcast(i%3, "serial", int64(i)); err != nil {
					t.Fatalf("broadcast %d: %v", i, err)
				}
			}
			if after := fewestGoroutines(); after != idle {
				t.Fatalf("%d goroutines after 1,000 broadcasts, %d after none", after, idle)
			}
		})
	}
}

// TestCloseFailsQueuedRequests: Close lands while a second request waits
// behind a first at the same process. Both complete with ErrClosed on
// every substrate, the queued one having never been evaluated, and the
// queued request's per-request state is not left installed: no feedback
// sink, no critical-section body.
func TestCloseFailsQueuedRequests(t *testing.T) {
	t.Parallel()
	for _, s := range []struct {
		name string
		sub  func() Substrate
	}{{"sim", Sim}, {"runtime", Runtime}, {"udp", UDP}, {"tcp", TCP}} {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			var never atomic.Bool
			pif := NewPIFCluster(2, WithSubstrate(s.sub()))
			first := held(&pif.clusterCore, 0, &never)
			queued := pif.BroadcastAsync(0, "queued", 1)
			me := NewMutexCluster([]int64{4, 2}, WithSubstrate(s.sub()))
			meFirst := held(&me.clusterCore, 0, &never)
			meQueued := me.AcquireAsync(0, func() { t.Error("the body of a closed acquire ran") })
			pif.Close()
			me.Close()
			for name, r := range map[string]*Request{
				"pif head": first, "pif queued": queued.Request,
				"mutex head": meFirst, "mutex queued": meQueued,
			} {
				if err := r.Wait(testCtx(t)); !errors.Is(err, ErrClosed) {
					t.Errorf("%s: %v, want ErrClosed", name, err)
				}
			}
			pif.sub.Do(0, func(core.Env) {
				if pif.active[0] != nil {
					t.Error("feedback sink installed after Close")
				}
			})
			me.sub.Do(0, func(core.Env) {
				if me.machines[0].CSBody != nil {
					t.Error("critical-section body installed after Close")
				}
			})
		})
	}
}

// BenchmarkSimDoBehindPendingRequests times a Do on Sim while sixteen
// requests that never hold are pending, four per process, and the
// driver steps for them: the Do waits at most one run of the driver,
// which hands the mutex over between runs. It reports the p50 and p90
// of the Do's wall time; ns/op includes a pause before each Do, in which
// the driver runs.
func BenchmarkSimDoBehindPendingRequests(b *testing.B) {
	c := NewPIFCluster(4, WithStepBudget(math.MaxInt))
	defer c.Close()
	var never atomic.Bool
	for i := 0; i < 16; i++ {
		held(&c.clusterCore, i%4, &never).Done() // waited on: the driver runs
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		// Let the driver run first, or the loop's Do calls would hand
		// the mutex to each other and time nothing.
		time.Sleep(100 * time.Microsecond)
		start := time.Now()
		c.sub.Do(core.ProcID(i%4), func(core.Env) {})
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds())/1e3, "p50-µs")
	b.ReportMetric(float64(lat[len(lat)*9/10].Nanoseconds())/1e3, "p90-µs")
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestDescribeErrAllocatesOnlyItsMessage: every request's completion maps
// its terminal error, so the success path allocates nothing, and a closed
// cluster's error allocates only the message it returns, as much as the
// same fmt.Errorf alone: no budget target is made for an error that is
// not one. The second is a mean over many calls, because under the race
// detector fmt's printer pool drops entries at random.
func TestDescribeErrAllocatesOnlyItsMessage(t *testing.T) {
	label, p := strings.Repeat("broadcast", 1), 1000 // neither a constant, as in a request
	if n := testing.AllocsPerRun(100, func() { _ = describeErr(nil, label, p) }); n != 0 {
		t.Errorf("describeErr(nil) allocated %v times; want 0", n)
	}
	mallocs := func(f func()) float64 {
		const calls = 10000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / calls
	}
	message := mallocs(func() { _ = fmt.Errorf("%w: %s at %d", ErrClosed, label, p) })
	if n := mallocs(func() { _ = describeErr(core.ErrClosed, label, p) }); n > message+0.5 {
		t.Errorf("describeErr(core.ErrClosed) allocated %.2f times a call; want %.2f, its message's", n, message)
	}
	if err := describeErr(core.ErrClosed, label, p); !errors.Is(err, ErrClosed) {
		t.Errorf("describeErr(core.ErrClosed) = %v; want ErrClosed", err)
	}
}
