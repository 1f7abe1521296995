package snapstab

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// order is the struct payload used across the typed-cluster tests; Data
// gives it bulk (the 4KiB transit cases).
type order struct {
	SKU  string `json:"sku"`
	Qty  int    `json:"qty"`
	Data []byte `json:"data,omitempty"`
}

func bigOrder(size int) order {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	return order{SKU: "bulk", Qty: size, Data: data}
}

func typedCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestCodecRoundTrips(t *testing.T) {
	t.Parallel()
	if out, err := Bytes.Unmarshal([]byte{1, 2, 3}); err != nil || !bytes.Equal(out, []byte{1, 2, 3}) {
		t.Fatalf("Bytes round trip: %v %v", out, err)
	}
	if out, err := String.Unmarshal([]byte("hé")); err != nil || out != "hé" {
		t.Fatalf("String round trip: %q %v", out, err)
	}
	c := JSON[order]()
	data, err := c.Marshal(order{SKU: "x", Qty: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Unmarshal(data)
	if err != nil || v.SKU != "x" || v.Qty != 2 {
		t.Fatalf("JSON round trip: %+v %v", v, err)
	}
	if _, err := c.Unmarshal([]byte{0xFF, 0x00, 'g'}); err == nil {
		t.Fatal("JSON codec accepted garbage")
	}
}

// TestBytesCodecCopiesBothWays pins the immutability contract: neither
// the application's view of a received body nor an in-flight broadcast
// blob may alias the other side's memory (a caller mutating its slice
// after BroadcastAsync would otherwise race the process goroutines).
func TestBytesCodecCopiesBothWays(t *testing.T) {
	t.Parallel()
	in := []byte{1, 2, 3}
	out, err := Bytes.Unmarshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out[0] = 9
	if in[0] != 1 {
		t.Fatal("Unmarshal aliased its input")
	}
	enc, err := Bytes.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	in[1] = 9
	if enc[1] != 2 {
		t.Fatal("Marshal aliased the caller's slice")
	}
}

// TestTypedBroadcastEchoSim: the default receiver echoes the struct
// back; every feedback decodes to the broadcast value, and the armed
// spec checker compares values exactly (ValueChecked).
func TestTypedBroadcastEchoSim(t *testing.T) {
	t.Parallel()
	c := NewTypedPIFCluster(4, JSON[order](), WithSeed(7))
	defer c.Close()
	c.CorruptEverything(42)
	want := order{SKU: "widget", Qty: 3}
	if err := c.ArmSpec(0, want); err != nil {
		t.Fatal(err)
	}
	fb, err := c.Broadcast(0, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) != 3 {
		t.Fatalf("got %d feedbacks, want 3", len(fb))
	}
	for _, f := range fb {
		if f.Err != nil {
			t.Fatalf("feedback from %d undecodable: %v", f.From, f.Err)
		}
		if f.Value.SKU != want.SKU || f.Value.Qty != want.Qty {
			t.Fatalf("feedback from %d = %+v, want echo of %+v", f.From, f.Value, want)
		}
	}
	rep := c.SpecReport()
	if !rep.Started || !rep.Decided || !rep.ValueChecked {
		t.Fatalf("spec report %+v: want started, decided, value-checked", rep)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("specification 1 violated: %v", rep.Violations)
	}
}

// TestTypedCustomReceiver: WithReceiverT transforms the value; the spec
// verdict must admit it never compared values (ValueChecked false).
func TestTypedCustomReceiver(t *testing.T) {
	t.Parallel()
	c := NewTypedPIFCluster(3, JSON[order](), WithSeed(3),
		WithReceiverT(func(proc, from int, b order) order {
			b.Qty += proc * 100
			return b
		}))
	defer c.Close()
	if err := c.ArmSpec(0, order{SKU: "s", Qty: 1}); err != nil {
		t.Fatal(err)
	}
	fb, err := c.Broadcast(0, order{SKU: "s", Qty: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fb {
		if f.Err != nil {
			t.Fatalf("feedback from %d undecodable: %v", f.From, f.Err)
		}
		if f.Value.Qty != 1+f.From*100 {
			t.Fatalf("feedback from %d = %+v, want Qty %d", f.From, f.Value, 1+f.From*100)
		}
	}
	rep := c.SpecReport()
	if !rep.Decided || rep.ValueChecked {
		t.Fatalf("spec report %+v: custom receiver must report ValueChecked=false", rep)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestLegacySpecReportValueChecked pins the ArmSpec satellite on the
// legacy cluster: the default receiver checks values, a custom receiver
// must say it did not.
func TestLegacySpecReportValueChecked(t *testing.T) {
	t.Parallel()
	def := NewPIFCluster(3, WithSeed(1))
	defer def.Close()
	if err := def.ArmSpec(0, "x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := def.Broadcast(0, "x", 1); err != nil {
		t.Fatal(err)
	}
	if rep := def.SpecReport(); !rep.ValueChecked || !rep.Decided {
		t.Fatalf("default receiver report %+v: want ValueChecked=true", rep)
	}

	custom := NewPIFCluster(3, WithSeed(1), WithReceiver(func(proc, from int, b Payload) Payload {
		return Payload{Tag: "custom", Num: int64(proc)}
	}))
	defer custom.Close()
	if err := custom.ArmSpec(0, "x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := custom.Broadcast(0, "x", 1); err != nil {
		t.Fatal(err)
	}
	rep := custom.SpecReport()
	if rep.ValueChecked {
		t.Fatalf("custom receiver report %+v: claims value-exact checking it never did", rep)
	}
	if !rep.Decided || len(rep.Violations) != 0 {
		t.Fatalf("custom receiver report %+v: handshake clauses must still be judged", rep)
	}
}

// blobRecorder captures every accepted broadcast body per process, for
// the cross-substrate transit assertions. Handlers run on process
// goroutines on the concurrent substrates, hence the lock.
type blobRecorder struct {
	mu   sync.Mutex
	seen map[int][][]byte // proc -> marshaled bodies accepted
}

func newBlobRecorder() *blobRecorder { return &blobRecorder{seen: make(map[int][][]byte)} }

func (r *blobRecorder) record(proc int, data []byte) {
	r.mu.Lock()
	r.seen[proc] = append(r.seen[proc], data)
	r.mu.Unlock()
}

// sawExactly reports whether process proc accepted a body byte-identical
// to want.
func (r *blobRecorder) sawExactly(proc int, want []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.seen[proc] {
		if bytes.Equal(b, want) {
			return true
		}
	}
	return false
}

// TestTypedBlobTransitAllSubstrates broadcasts a 4KiB JSON payload on
// Sim, Runtime, and UDP and asserts it decodes byte-identical at every
// receiver and in every decided feedback — the opaque body crosses the
// in-memory channels, the goroutine fan-in, and real wire-encoded UDP
// datagrams unchanged.
func TestTypedBlobTransitAllSubstrates(t *testing.T) {
	t.Parallel()
	want := bigOrder(4096)
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		s    Substrate
	}{
		{"sim", Sim()},
		{"runtime", Runtime()},
		{"udp", UDP()},
	} {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			t.Parallel()
			const n = 3
			rec := newBlobRecorder()
			c := NewTypedPIFCluster(n, JSON[order](), WithSubstrate(sub.s), WithSeed(11),
				WithReceiverT(func(proc, from int, b order) order {
					data, err := json.Marshal(b)
					if err == nil {
						rec.record(proc, data)
					}
					return b // echo
				}))
			defer c.Close()
			c.CorruptEverything(99)
			req := c.BroadcastAsync(0, want)
			if err := req.Wait(typedCtx(t)); err != nil {
				t.Fatal(err)
			}
			fb := req.Feedbacks()
			if len(fb) != n-1 {
				t.Fatalf("got %d feedbacks, want %d", len(fb), n-1)
			}
			for _, f := range fb {
				if f.Err != nil {
					t.Fatalf("feedback from %d undecodable: %v", f.From, f.Err)
				}
				got, err := json.Marshal(f.Value)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Fatalf("feedback from %d differs from broadcast (%d vs %d bytes)", f.From, len(got), len(wantBytes))
				}
			}
			for q := 1; q < n; q++ {
				if !rec.sawExactly(q, wantBytes) {
					t.Fatalf("process %d never accepted the byte-identical 4KiB payload", q)
				}
			}
		})
	}
}

// TestTypedBlobTransitCorruptThenReset runs the snapchaos
// corrupt-then-reset shape on the deterministic substrate — corrupted
// initial configuration plus heavy in-flight corruption, every garbled
// message discarded — and asserts the 4KiB payload still decodes
// byte-identical at every receiver and in the decision. This is
// Theorem 2 with the opaque body as the value under test.
func TestTypedBlobTransitCorruptThenReset(t *testing.T) {
	t.Parallel()
	want := bigOrder(4096)
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	rec := newBlobRecorder()
	c := NewTypedPIFCluster(n, JSON[order](), WithSeed(5),
		WithFaults(FaultPlan{
			Seed:    2024,
			Default: LinkFaults{CorruptRate: 0.25, DropRate: 0.05},
		}),
		WithReceiverT(func(proc, from int, b order) order {
			if data, err := json.Marshal(b); err == nil {
				rec.record(proc, data)
			}
			return b
		}))
	defer c.Close()
	c.CorruptEverything(7 * 2024)
	for round := 0; round < 2; round++ {
		req := c.BroadcastAsync(0, want)
		if err := req.Wait(typedCtx(t)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fb := req.Feedbacks()
		if len(fb) != n-1 {
			t.Fatalf("round %d: got %d feedbacks, want %d", round, len(fb), n-1)
		}
		for _, f := range fb {
			if f.Err != nil {
				t.Fatalf("round %d: feedback from %d undecodable: %v", round, f.From, f.Err)
			}
			got, err := json.Marshal(f.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("round %d: feedback from %d not byte-identical", round, f.From)
			}
		}
	}
	for q := 1; q < n; q++ {
		if !rec.sawExactly(q, wantBytes) {
			t.Fatalf("process %d never accepted the byte-identical payload under corruption", q)
		}
	}
	if faults := c.FaultStats(); faults.Corrupts == 0 {
		t.Fatalf("scenario injected no in-flight corruption: %+v — the test proved nothing", faults)
	}
}

// TestTypedMarshalFailureFailsRequest: a value the codec rejects fails
// the request up front without touching the machines.
func TestTypedMarshalFailureFailsRequest(t *testing.T) {
	t.Parallel()
	c := NewTypedPIFCluster(2, JSON[chan int]())
	defer c.Close()
	req := c.BroadcastAsync(0, make(chan int))
	if err := req.Wait(typedCtx(t)); err == nil {
		t.Fatal("unmarshalable value accepted")
	}
}

// TestTypedConstructorValidation pins the misuse panics.
func TestTypedConstructorValidation(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("nil codec", func() { NewTypedPIFCluster[string](2, nil) })
	expectPanic("legacy receiver on typed cluster", func() {
		NewTypedPIFCluster(2, String, WithReceiver(func(_, _ int, b Payload) Payload { return b }))
	})
	expectPanic("typed receiver on legacy cluster", func() {
		NewPIFCluster(2, WithReceiverT(func(_, _ int, b string) string { return b }))
	})
	expectPanic("type-mismatched typed receiver", func() {
		NewTypedPIFCluster(2, String, WithReceiverT(func(_, _ int, b int) int { return b }))
	})
}

// TestErrorsIsThroughWrapPaths pins the sentinel contract on every
// façade wrap path: budget exhaustion, cluster close, invalid process,
// partial reset acknowledgment, and remote-process requests all answer
// errors.Is through whatever wrapping the request plumbing applied.
func TestErrorsIsThroughWrapPaths(t *testing.T) {
	t.Parallel()

	t.Run("budget", func(t *testing.T) {
		t.Parallel()
		c := NewPIFCluster(3, WithStepBudget(10))
		defer c.Close()
		c.CorruptEverything(1)
		_, err := c.Broadcast(0, "x", 1)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("got %v, want errors.Is ErrBudget", err)
		}
		tc := NewTypedPIFCluster(3, String, WithStepBudget(10))
		defer tc.Close()
		if _, err := tc.Broadcast(0, "hello"); !errors.Is(err, ErrBudget) {
			t.Fatalf("typed: got %v, want errors.Is ErrBudget", err)
		}
	})

	t.Run("closed", func(t *testing.T) {
		t.Parallel()
		c := NewPIFCluster(3)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := c.Broadcast(0, "x", 1)
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want errors.Is ErrClosed", err)
		}
	})

	t.Run("invalid-process", func(t *testing.T) {
		t.Parallel()
		c := NewPIFCluster(3)
		defer c.Close()
		if _, err := c.Broadcast(9, "x", 1); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("broadcast: got %v, want errors.Is ErrInvalidProcess", err)
		}
		if err := c.ArmSpec(-1, "x", 1); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("armspec: got %v, want errors.Is ErrInvalidProcess", err)
		}
		ids := []int64{3, 1, 2}
		idc := NewIDCluster(ids)
		defer idc.Close()
		if _, _, err := idc.Learn(-2); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("learn: got %v, want errors.Is ErrInvalidProcess", err)
		}
		mc := NewMutexCluster(ids)
		defer mc.Close()
		if err := mc.Acquire(17, nil); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("acquire: got %v, want errors.Is ErrInvalidProcess", err)
		}
		if err := mc.AcquireAll([]int{0, 99}, nil); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("acquire-all: got %v, want errors.Is ErrInvalidProcess", err)
		}
		tc := NewTypedPIFCluster(3, String)
		defer tc.Close()
		if _, err := tc.Broadcast(5, "v"); !errors.Is(err, ErrInvalidProcess) {
			t.Fatalf("typed broadcast: got %v, want errors.Is ErrInvalidProcess", err)
		}
	})

	t.Run("partial-ack", func(t *testing.T) {
		t.Parallel()
		// No channel fault reaches ErrPartialAck: it checks a decision the
		// protocol's proof already guarantees. The test therefore breaks
		// the initiator's own bookkeeping: the hook runs inside the atomic
		// section in which process 0's child PIF decides — after the last
		// feedback was recorded, before the reset machine's termination
		// action reads the table — and overwrites one acknowledgment. The
		// sentinel must answer errors.Is through the double wrap ("reset
		// at p: ... of epoch e").
		var c *ResetCluster
		c = NewResetCluster(3, nil, WithSeed(1), WithEventHook(func(ev ObservedEvent) {
			if ev.Kind == "decide" && ev.Proc == 0 && ev.Instance == "reset/pif" {
				c.machines[0].Acked[1] = -7
			}
		}))
		defer c.Close()
		if _, err := c.Reset(0); !errors.Is(err, ErrPartialAck) {
			t.Fatalf("got %v, want errors.Is ErrPartialAck", err)
		}
	})

	t.Run("remote-process", func(t *testing.T) {
		t.Parallel()
		// A TCPHost daemon owns exactly one process; requests addressed
		// to a peer's process fail loudly before any traffic, on both
		// the legacy and the typed request paths.
		const n = 2
		addrs := make([]string, n)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		fleet := func(self int) Option {
			return WithSubstrate(TCPHost(TCPFleet{Self: self, Listen: addrs[self], Peers: addrs}))
		}
		c0 := NewPIFCluster(n, fleet(0), WithSeed(7))
		defer c0.Close()
		if _, err := c0.Broadcast(1, "misplaced", 1); !errors.Is(err, ErrRemoteProcess) {
			t.Fatalf("legacy remote broadcast: got %v, want errors.Is ErrRemoteProcess", err)
		}
		c1 := NewTypedPIFCluster(n, String, fleet(1), WithSeed(7))
		defer c1.Close()
		if _, err := c1.Broadcast(0, "misplaced"); !errors.Is(err, ErrRemoteProcess) {
			t.Fatalf("typed remote broadcast: got %v, want errors.Is ErrRemoteProcess", err)
		}
	})
}

// TestTypedStringAndBytesClusters smoke-tests the two built-in
// non-JSON codecs end to end on the default substrate.
func TestTypedStringAndBytesClusters(t *testing.T) {
	t.Parallel()
	sc := NewTypedPIFCluster(3, String, WithSeed(2))
	defer sc.Close()
	fb, err := sc.Broadcast(1, "payload-π")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fb {
		if f.Err != nil || f.Value != "payload-π" {
			t.Fatalf("string echo from %d: %q %v", f.From, f.Value, f.Err)
		}
	}
	bc := NewTypedPIFCluster(3, Bytes, WithSeed(2))
	defer bc.Close()
	blob := []byte{0, 1, 2, 254, 255}
	bfb, err := bc.Broadcast(2, blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range bfb {
		if f.Err != nil || !bytes.Equal(f.Value, blob) {
			t.Fatalf("bytes echo from %d: %x %v", f.From, f.Value, f.Err)
		}
	}
}

// TestTypedOversizedPayloadFailsFast: a marshaled body beyond the wire
// limit must fail the request up front with an error — on UDP it would
// otherwise be silently dropped at every send and the blocking request
// would wait forever.
func TestTypedOversizedPayloadFailsFast(t *testing.T) {
	t.Parallel()
	c := NewTypedPIFCluster(2, Bytes)
	defer c.Close()
	req := c.BroadcastAsync(0, make([]byte, 20_000))
	if err := req.Wait(typedCtx(t)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := c.ArmSpec(0, make([]byte, 20_000)); err == nil {
		t.Fatal("ArmSpec accepted an oversized payload")
	}
}

// TestFeedbacksBeforeCompletion: reading feedbacks mid-flight returns
// nil without latching — the post-completion read still sees the real
// acknowledgments (both façades).
func TestFeedbacksBeforeCompletion(t *testing.T) {
	t.Parallel()
	tc := NewTypedPIFCluster(3, String, WithSubstrate(Runtime()))
	defer tc.Close()
	req := tc.BroadcastAsync(0, "v")
	_ = req.Feedbacks() // likely in flight: must not latch empty
	if err := req.Wait(typedCtx(t)); err != nil {
		t.Fatal(err)
	}
	if fb := req.Feedbacks(); len(fb) != 2 {
		t.Fatalf("post-completion Feedbacks = %d entries, want 2 (premature read latched)", len(fb))
	}

	lc := NewPIFCluster(3, WithSubstrate(Runtime()))
	defer lc.Close()
	lreq := lc.BroadcastAsync(0, "x", 1)
	_ = lreq.Feedbacks()
	if err := lreq.Wait(typedCtx(t)); err != nil {
		t.Fatal(err)
	}
	if fb := lreq.Feedbacks(); len(fb) != 2 {
		t.Fatalf("legacy post-completion Feedbacks = %d entries, want 2", len(fb))
	}
}

// TestFeedbacksSurfaceMarkerPayloads pins the TypedFeedback.Err
// contract under codecs whose Unmarshal never fails: a feedback that is
// not tagged as an application payload (a receiver's undecodable /
// unencodable marker, or accepted corruption garbage) must surface as
// Err, never as a fabricated zero value.
func TestFeedbacksSurfaceMarkerPayloads(t *testing.T) {
	t.Parallel()
	c := NewTypedPIFCluster(2, Bytes)
	defer c.Close()
	done := make(chan struct{})
	close(done)
	req := &TypedBroadcastRequest[[]byte]{
		Request: &Request{done: done},
		c:       c,
		raw: &payloadBroadcastRequest{fb: []rawFeedback{
			{From: 1, Value: core.Payload{Tag: "undecodable"}},
			{From: 2, Value: core.Payload{Tag: "app", Blob: []byte{7}}},
		}},
	}
	fb := req.Feedbacks()
	if fb[0].Err == nil {
		t.Fatal("marker feedback surfaced with a nil Err and a fabricated value")
	}
	if fb[1].Err != nil || !bytes.Equal(fb[1].Value, []byte{7}) {
		t.Fatalf("genuine feedback mangled: %v %v", fb[1].Value, fb[1].Err)
	}
}

// TestCustomReceiverNeverSeesGarbage pins the WithReceiverT contract
// under never-failing codecs: corruption garbage (untagged payloads)
// must answer with the marker, not invoke the handler with fabricated
// bytes.
func TestCustomReceiverNeverSeesGarbage(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var got [][]byte
	c := NewTypedPIFCluster(3, Bytes, WithSeed(21),
		WithReceiverT(func(proc, from int, b []byte) []byte {
			mu.Lock()
			got = append(got, append([]byte(nil), b...))
			mu.Unlock()
			return b
		}))
	defer c.Close()
	c.CorruptEverything(63) // garbage machine state and channels, bodies included
	want := []byte("genuine-application-bytes")
	fb, err := c.Broadcast(0, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fb {
		if f.Err != nil || !bytes.Equal(f.Value, want) {
			t.Fatalf("feedback from %d: %q %v", f.From, f.Value, f.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range got {
		if !bytes.Equal(b, want) {
			t.Fatalf("handler invoked with fabricated bytes %q (corruption garbage leaked through)", b)
		}
	}
}
