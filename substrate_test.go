package snapstab_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// substrates lists the in-memory substrates every façade test should
// pass on unchanged. UDP has its own (slower, socket-binding) test.
func substrates() map[string]func() snapstab.Substrate {
	return map[string]func() snapstab.Substrate{
		"sim":     snapstab.Sim,
		"runtime": snapstab.Runtime,
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestFacadeAcrossSubstrates runs all five cluster types, from fully
// corrupted initial configurations, on every substrate: the same façade
// code must complete its requests correctly no matter the engine.
func TestFacadeAcrossSubstrates(t *testing.T) {
	t.Parallel()
	for name, sub := range substrates() {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()

			t.Run("pif", func(t *testing.T) {
				t.Parallel()
				c := snapstab.NewPIFCluster(4, snapstab.WithSubstrate(sub()), snapstab.WithSeed(7))
				defer c.Close()
				c.CorruptEverything(99)
				req := c.BroadcastAsync(1, "fresh", 6)
				if err := req.Wait(testCtx(t)); err != nil {
					t.Fatal(err)
				}
				fb := req.Feedbacks()
				if len(fb) != 3 {
					t.Fatalf("got %d feedbacks, want 3", len(fb))
				}
				for _, f := range fb {
					if want := int64(6000 + f.From); f.Value.Num != want {
						t.Errorf("feedback from %d = %v, want Num %d (stale acknowledgment)", f.From, f.Value, want)
					}
				}
			})

			t.Run("idl", func(t *testing.T) {
				t.Parallel()
				c := snapstab.NewIDCluster([]int64{42, 7, 19}, snapstab.WithSubstrate(sub()))
				defer c.Close()
				c.CorruptEverything(4)
				min, table, err := c.Learn(2)
				if err != nil {
					t.Fatal(err)
				}
				if min != 7 {
					t.Fatalf("minID = %d, want 7", min)
				}
				for i, want := range []int64{42, 7, 19} {
					if table[i] != want {
						t.Fatalf("table = %v, want [42 7 19]", table)
					}
				}
			})

			t.Run("mutex", func(t *testing.T) {
				t.Parallel()
				c := snapstab.NewMutexCluster([]int64{5, 3, 9}, snapstab.WithSubstrate(sub()))
				defer c.Close()
				c.CorruptEverything(8)
				var counter atomic.Int64
				if err := c.AcquireAll([]int{0, 1, 2}, []func(){
					func() { counter.Add(1) },
					func() { counter.Add(1) },
					func() { counter.Add(1) },
				}); err != nil {
					t.Fatal(err)
				}
				if got := counter.Load(); got != 3 {
					t.Fatalf("counter = %d, want 3", got)
				}
				if v := c.Violations(); len(v) != 0 {
					t.Fatalf("violations: %v", v)
				}
			})

			t.Run("reset", func(t *testing.T) {
				t.Parallel()
				const n = 3
				var mu sync.Mutex
				wiped := make([][]int64, n)
				c := snapstab.NewResetCluster(n, func(p int, epoch int64) {
					mu.Lock()
					wiped[p] = append(wiped[p], epoch)
					mu.Unlock()
				}, snapstab.WithSubstrate(sub()))
				defer c.Close()
				c.CorruptEverything(3)
				req := c.ResetAsync(1)
				if err := req.Wait(testCtx(t)); err != nil {
					t.Fatal(err)
				}
				// Every process reinitialized under the decided epoch at
				// some point (a corrupted peer may have launched its own
				// concurrent reset, so other epochs can appear too).
				mu.Lock()
				defer mu.Unlock()
				for p := 0; p < n; p++ {
					found := false
					for _, e := range wiped[p] {
						if e == req.Epoch() {
							found = true
						}
					}
					if !found {
						t.Fatalf("process %d never reset under epoch %d (saw %v)", p, req.Epoch(), wiped[p])
					}
				}
			})

			t.Run("snapshot", func(t *testing.T) {
				t.Parallel()
				states := []int64{11, 22, 33}
				c := snapstab.NewSnapshotCluster(3, func(p int) snapstab.Payload {
					return snapstab.Payload{Tag: "state", Num: states[p]}
				}, snapstab.WithSubstrate(sub()))
				defer c.Close()
				c.CorruptEverything(9)
				views, err := c.Collect(1)
				if err != nil {
					t.Fatal(err)
				}
				for p, want := range states {
					if views[p].Num != want || views[p].Tag != "state" {
						t.Fatalf("view of %d = %v, want state(%d)", p, views[p], want)
					}
				}
			})
		})
	}
}

// TestConcurrentAcquireAsync issues a critical-section request from
// EVERY process of a corrupted cluster at once — the multi-initiator
// workload the blocking API could not express — and verifies all are
// served with zero mutual exclusion violations, on both substrates.
func TestConcurrentAcquireAsync(t *testing.T) {
	t.Parallel()
	for name, sub := range substrates() {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ids := []int64{31, 8, 59, 26}
			c := snapstab.NewMutexCluster(ids, snapstab.WithSubstrate(sub()), snapstab.WithSeed(13))
			defer c.Close()
			c.CorruptEverything(21)
			var inside, total atomic.Int64
			reqs := make([]*snapstab.Request, len(ids))
			for p := range ids {
				reqs[p] = c.AcquireAsync(p, func() {
					if inside.Add(1) != 1 {
						t.Error("two bodies inside the critical section")
					}
					total.Add(1)
					inside.Add(-1)
				})
			}
			ctx := testCtx(t)
			for p, req := range reqs {
				if err := req.Wait(ctx); err != nil {
					t.Fatalf("process %d: %v", p, err)
				}
			}
			if got := total.Load(); got != int64(len(ids)) {
				t.Fatalf("served %d bodies, want %d", got, len(ids))
			}
			if v := c.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
			if c.Entries() < len(ids) {
				t.Fatalf("entries = %d, want >= %d", c.Entries(), len(ids))
			}
		})
	}
}

// TestConcurrentBroadcastAsync has several initiators broadcast at once;
// each request must collect exactly the acknowledgments of ITS broadcast
// (the per-request feedback routing that replaced the racy callback
// swapping), on both substrates.
func TestConcurrentBroadcastAsync(t *testing.T) {
	t.Parallel()
	for name, sub := range substrates() {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const n = 4
			c := snapstab.NewPIFCluster(n, snapstab.WithSubstrate(sub()), snapstab.WithSeed(5))
			defer c.Close()
			c.CorruptEverything(17)
			reqs := make([]*snapstab.BroadcastRequest, n)
			for p := 0; p < n; p++ {
				reqs[p] = c.BroadcastAsync(p, "concurrent", int64(100+p))
			}
			ctx := testCtx(t)
			for p, req := range reqs {
				if err := req.Wait(ctx); err != nil {
					t.Fatalf("initiator %d: %v", p, err)
				}
				fb := req.Feedbacks()
				if len(fb) != n-1 {
					t.Fatalf("initiator %d: %d feedbacks, want %d", p, len(fb), n-1)
				}
				for _, f := range fb {
					if want := int64(100+p)*1000 + int64(f.From); f.Value.Num != want {
						t.Errorf("initiator %d: feedback %v from %d answers someone else's broadcast (want Num %d)",
							p, f.Value, f.From, want)
					}
				}
			}
		})
	}
}

// TestRuntimeIdleOwnsNoGoroutine: a Runtime node is a lock and a timer.
// A PIF cluster that answered a thousand broadcasts and now has nothing
// to do runs no goroutine of its own: once its timers have parked, no
// goroutine that was not there before the cluster was built has an
// engine frame on its stack — no loop, no timer callback, no hand-off.
// The goroutines are told apart by id, so one that another test left
// behind and that ends meanwhile cannot hide one this cluster leaked.
func TestRuntimeIdleOwnsNoGoroutine(t *testing.T) {
	before := engineGoroutines()
	c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.Runtime()))
	defer c.Close()
	for i := 0; i < 1000; i++ {
		if _, err := c.Broadcast(i%3, "idle", int64(i)); err != nil {
			t.Fatalf("broadcast %d: %v", i, err)
		}
	}
	var owned []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		owned = owned[:0]
		for id, stack := range engineGoroutines() {
			if _, ok := before[id]; !ok {
				owned = append(owned, stack)
			}
		}
		if len(owned) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(owned) > 0 {
		t.Fatalf("%d goroutines run engine code with an idle Runtime cluster:\n\n%s", len(owned), strings.Join(owned, "\n\n"))
	}
}

// engineGoroutines returns the stack of every goroutine with an engine
// frame on it, by goroutine id.
func engineGoroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	found := make(map[string]string)
	for _, stack := range strings.Split(string(buf), "\n\n") {
		// "goroutine 42 [state]:" heads each stack.
		if f := strings.Fields(stack); len(f) > 1 && strings.Contains(stack, "/internal/transport/engine.") {
			found[f[1]] = stack
		}
	}
	return found
}

// TestSerializedRequestsSameProcess pins the documented behavior for
// several asynchronous requests at ONE process, on both substrates:
// they serialize through the per-process gate, every one completes, and
// each collects its own feedback set. (Without the gate, the polling
// substrates can lose a request forever: another request's Invoke
// consumes the machine's decision window between two polls.)
func TestSerializedRequestsSameProcess(t *testing.T) {
	t.Parallel()
	for name, sub := range substrates() {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(sub()), snapstab.WithSeed(23))
			defer c.Close()
			const k = 5
			reqs := make([]*snapstab.BroadcastRequest, k)
			for i := range reqs {
				reqs[i] = c.BroadcastAsync(0, "burst", int64(i+1))
			}
			ctx := testCtx(t)
			for i, req := range reqs {
				if err := req.Wait(ctx); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if len(req.Feedbacks()) != 2 {
					t.Fatalf("request %d: %d feedbacks, want 2", i, len(req.Feedbacks()))
				}
				for _, f := range req.Feedbacks() {
					if f.Value.Num/1000 != int64(i+1) {
						t.Errorf("request %d got feedback %v answering someone else's broadcast", i, f.Value)
					}
				}
			}
		})
	}
}

// checkWindows asserts the capacity bound held on every link of a
// network substrate: no window ever held more than the enforced c.
func checkWindows(t *testing.T, stats []snapstab.TransportStats, wantCapacity int) {
	t.Helper()
	for p, s := range stats {
		if s.Capacity != wantCapacity {
			t.Errorf("node %d enforces capacity %d, want %d", p, s.Capacity, wantCapacity)
		}
		if len(s.Links) == 0 {
			t.Errorf("node %d reports no link windows", p)
		}
		for _, l := range s.Links {
			if l.PeakInFlight > s.Capacity {
				t.Errorf("link %d->%d peaked at %d in flight, capacity %d", p, l.Peer, l.PeakInFlight, s.Capacity)
			}
		}
	}
}

// TestSocketCapacityIsTheEnforcedBound: on the socket substrates
// WithCapacity is the per-link window the transport enforces (default
// engine.DefaultCapacity), a mux fixes it for every attached cluster,
// and a bound whose flag domain would not fit the wire is refused at
// construction.
func TestSocketCapacityIsTheEnforcedBound(t *testing.T) {
	t.Parallel()
	for name, sub := range map[string]snapstab.Substrate{"udp": snapstab.UDP(), "tcp": snapstab.TCP()} {
		c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(sub), snapstab.WithCapacity(engine.DefaultCapacity+1))
		if _, err := c.Broadcast(0, "bound", 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stats := c.TransportStats()
		c.Close()
		checkWindows(t, stats, engine.DefaultCapacity+1)
		if peak := stats[0].Links[0].PeakInFlight; peak < 1 {
			t.Errorf("%s: initiator's window never held a message (peak %d)", name, peak)
		}
	}

	mux, err := snapstab.UDPMux(3, snapstab.WithCapacity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(mux.Substrate()), snapstab.WithCapacity(7))
	if _, err := c.Broadcast(0, "bound", 2); err != nil {
		t.Fatal(err)
	}
	checkWindows(t, c.TransportStats(), 3)
	c.Close()

	defer func() {
		if recover() == nil {
			t.Fatal("capacity 127 (flag top 256) did not panic")
		}
	}()
	snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.UDP()), snapstab.WithCapacity(127))
}

// TestUDPSubstrate completes a corrupted broadcast over real loopback
// sockets through the same façade code.
func TestUDPSubstrate(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.UDP()), snapstab.WithSeed(11))
	defer c.Close()
	c.CorruptEverything(31)
	req := c.BroadcastAsync(0, "wire", 9)
	if err := req.Wait(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if len(req.Feedbacks()) != 2 {
		t.Fatalf("got %d feedbacks, want 2", len(req.Feedbacks()))
	}
	stats := c.TransportStats()
	if len(stats) != 3 {
		t.Fatalf("got %d transport stat rows, want 3", len(stats))
	}
	for i, s := range stats {
		if s.Sends == 0 {
			t.Errorf("node %d sent no datagrams", i)
		}
		if s.Addr == "" {
			t.Errorf("node %d has no address", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	checkWindows(t, c.TransportStats(), engine.DefaultCapacity)
}

// TestTCPSubstrate completes a corrupted broadcast over persistent
// loopback TCP connections through the same façade code, and checks the
// transport exposes per-link throughput counters.
func TestTCPSubstrate(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(snapstab.TCP()), snapstab.WithSeed(11))
	defer c.Close()
	c.CorruptEverything(31)
	req := c.BroadcastAsync(0, "wire", 9)
	if err := req.Wait(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if len(req.Feedbacks()) != 2 {
		t.Fatalf("got %d feedbacks, want 2", len(req.Feedbacks()))
	}
	stats := c.TransportStats()
	if len(stats) != 3 {
		t.Fatalf("got %d transport stat rows, want 3", len(stats))
	}
	for i, s := range stats {
		if s.Sends == 0 {
			t.Errorf("node %d sent no frames", i)
		}
		if s.Addr == "" {
			t.Errorf("node %d has no address", i)
		}
		var linkTraffic int64
		for _, l := range s.Links {
			linkTraffic += l.Sent + l.Received
		}
		if linkTraffic == 0 {
			t.Errorf("node %d has no per-link traffic: %+v", i, s.Links)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	checkWindows(t, c.TransportStats(), engine.DefaultCapacity)
}

// TestTCPHostFleet assembles a fleet of single-process TCPHost
// substrates inside one test — the shape a multi-daemon deployment has
// across machines — and completes a broadcast initiated at one host.
func TestTCPHostFleet(t *testing.T) {
	t.Parallel()
	const n = 3
	// Reserve loopback ports for the fleet by binding and releasing.
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	clusters := make([]*snapstab.PIFCluster, n)
	for i := 0; i < n; i++ {
		clusters[i] = snapstab.NewPIFCluster(n,
			snapstab.WithSubstrate(snapstab.TCPHost(snapstab.TCPFleet{Self: i, Listen: addrs[i], Peers: addrs})),
			snapstab.WithSeed(21))
		defer clusters[i].Close()
		clusters[i].CorruptEverything(33)
	}
	req := clusters[0].BroadcastAsync(0, "fleet", 5)
	if err := req.Wait(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if len(req.Feedbacks()) != 2 {
		t.Fatalf("got %d feedbacks, want 2", len(req.Feedbacks()))
	}
	// A request at a process another host owns fails loudly, not silently.
	wrong := clusters[0].BroadcastAsync(1, "misplaced", 6)
	if err := wrong.Wait(testCtx(t)); !errors.Is(err, snapstab.ErrRemoteProcess) {
		t.Fatalf("broadcast at a remote process: got %v, want ErrRemoteProcess", err)
	}
}

// TestAcquireAllRejectsDuplicates pins the satellite fix: a duplicate
// initiator is an error, not a silent spin.
func TestAcquireAllRejectsDuplicates(t *testing.T) {
	t.Parallel()
	c := snapstab.NewMutexCluster([]int64{2, 8, 5})
	defer c.Close()
	err := c.AcquireAll([]int{0, 1, 0}, nil)
	if err == nil {
		t.Fatal("AcquireAll accepted a duplicate initiator")
	}
	if err := c.AcquireAll([]int{0, 3}, nil); err == nil {
		t.Fatal("AcquireAll accepted an out-of-range initiator")
	}
	if err := c.AcquireAll([]int{0, 1}, make([]func(), 1)); err == nil {
		t.Fatal("AcquireAll accepted mismatched bodies")
	}
	// The cluster is still usable after the rejections.
	if err := c.AcquireAll([]int{0, 1, 2}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbortsRequests verifies Close is idempotent on every cluster
// type and fails in-flight and future requests with ErrClosed.
func TestCloseAbortsRequests(t *testing.T) {
	t.Parallel()
	for name, sub := range substrates() {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// A tiny cluster that will never finish a request by itself:
			// close must abort it.
			c := snapstab.NewPIFCluster(2, snapstab.WithSubstrate(sub()), snapstab.WithStepBudget(1<<40))
			// Corrupt so heavily budgeted requests still run; then close
			// mid-flight.
			req := c.BroadcastAsync(0, "doomed", 1)
			time.Sleep(time.Millisecond)
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			err := req.Wait(testCtx(t))
			// The request may have legitimately finished before the close
			// landed; otherwise it must report ErrClosed.
			if err != nil && !errors.Is(err, snapstab.ErrClosed) {
				t.Fatalf("got %v, want nil or ErrClosed", err)
			}
			after := c.BroadcastAsync(0, "late", 2)
			if err := after.Wait(testCtx(t)); !errors.Is(err, snapstab.ErrClosed) {
				t.Fatalf("request after close: got %v, want ErrClosed", err)
			}
		})
	}
}

// TestClosePendingRequestOnEverySubstrate closes a cluster under a
// request that cannot finish — a partition that never heals cuts the
// initiator off — on all four substrates: the request must fail with
// ErrClosed, never hang and never succeed. Underneath, every engine
// reports a closed substrate with the one sentinel, core.ErrClosed
// (pinned by each engine's own Await-after-Close test).
func TestClosePendingRequestOnEverySubstrate(t *testing.T) {
	t.Parallel()
	cut := snapstab.FaultPlan{Partitions: []snapstab.PartitionWindow{{From: 0, Until: 1 << 40, GroupA: []int{0}}}}
	for name, sub := range map[string]func() snapstab.Substrate{
		"sim": snapstab.Sim, "runtime": snapstab.Runtime, "udp": snapstab.UDP, "tcp": snapstab.TCP,
	} {
		sub := sub
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(sub()),
				snapstab.WithFaults(cut), snapstab.WithStepBudget(1<<40))
			req := c.BroadcastAsync(0, "cut-off", 1)
			time.Sleep(5 * time.Millisecond)
			select {
			case <-req.Done():
				t.Fatalf("request finished across the partition: %v", req.Err())
			default:
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := req.Wait(testCtx(t)); !errors.Is(err, snapstab.ErrClosed) {
				t.Fatalf("pending request after close: got %v, want ErrClosed", err)
			}
		})
	}
}

// TestRequestWaitContext verifies a cancelled Wait abandons only the
// wait: the request completes on its own and can be waited on again.
func TestRequestWaitContext(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(3, snapstab.WithSeed(3))
	defer c.Close()
	req := c.BroadcastAsync(0, "patient", 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := req.Wait(cancelled); !errors.Is(err, context.Canceled) && err != nil {
		t.Fatalf("cancelled wait: got %v", err)
	}
	if err := req.Wait(testCtx(t)); err != nil {
		t.Fatalf("second wait: %v", err)
	}
	if req.Err() != nil {
		t.Fatalf("Err after success: %v", req.Err())
	}
	if len(req.Feedbacks()) != 2 {
		t.Fatalf("feedbacks: %v", req.Feedbacks())
	}
}

// TestRequestDoneSelect exercises the select-friendly completion form.
func TestRequestDoneSelect(t *testing.T) {
	t.Parallel()
	c := snapstab.NewIDCluster([]int64{9, 1, 4}, snapstab.WithSeed(6))
	defer c.Close()
	req := c.LearnAsync(0)
	select {
	case <-req.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("request never completed")
	}
	if req.Err() != nil {
		t.Fatal(req.Err())
	}
	if req.MinID() != 1 {
		t.Fatalf("minID = %d, want 1", req.MinID())
	}
}

// TestInvalidInitiator verifies out-of-range initiators fail cleanly
// instead of panicking.
func TestInvalidInitiator(t *testing.T) {
	t.Parallel()
	c := snapstab.NewPIFCluster(2)
	defer c.Close()
	if _, err := c.Broadcast(7, "x", 1); err == nil {
		t.Fatal("broadcast at process 7 of a 2-process cluster succeeded")
	}
	if _, err := c.Broadcast(-1, "x", 1); err == nil {
		t.Fatal("broadcast at process -1 succeeded")
	}
	req := c.BroadcastAsync(7, "x", 1)
	if req.Err() == nil {
		t.Fatal("async request at invalid process reports no error")
	}
	if err := fmt.Sprintf("%v", req.Err()); err == "" {
		t.Fatal("empty error text")
	}
}
