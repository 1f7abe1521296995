package channel

import (
	"testing"
	"testing/quick"

	"github.com/snapstab/snapstab/internal/rng"
)

// send offers a copy of v to q.
func send[T any](q *Queue[T], v T) bool { return q.Send(&v) }

// recv pops q's head and reads it out of its slot.
func recv[T any](q *Queue[T]) (T, bool) {
	if m := q.Pop(); m != nil {
		return *m, true
	}
	var zero T
	return zero, false
}

func TestBoundedFIFOOrder(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](3)
	for i := 1; i <= 3; i++ {
		if !send(ch, i) {
			t.Fatalf("Send(%d) lost in non-full channel", i)
		}
	}
	for i := 1; i <= 3; i++ {
		got, ok := recv(ch)
		if !ok || got != i {
			t.Fatalf("Recv() = %d,%v, want %d,true", got, ok, i)
		}
	}
	if _, ok := recv(ch); ok {
		t.Fatal("Recv() on empty channel succeeded")
	}
}

func TestBoundedLosesWhenFull(t *testing.T) {
	t.Parallel()
	ch := NewBounded[string](1)
	if !send(ch, "a") {
		t.Fatal("first send lost")
	}
	if send(ch, "b") {
		t.Fatal("send into full channel not lost")
	}
	if got := ch.Lost(); got != 1 {
		t.Fatalf("Lost() = %d, want 1", got)
	}
	m, ok := recv(ch)
	if !ok || m != "a" {
		t.Fatalf("Recv() = %q,%v, want \"a\",true", m, ok)
	}
}

// TestBoundedRefusedSendLeavesRing sends into a full ring: the refusal
// touches neither the buffered message nor the sender's, and counts one
// loss.
func TestBoundedRefusedSendLeavesRing(t *testing.T) {
	t.Parallel()
	type msg struct {
		kind string
		seq  int
	}
	ch := NewBounded[msg](1)
	first := msg{"first", 1}
	if !ch.Send(&first) {
		t.Fatal("send into an empty channel refused")
	}
	first.seq = 99 // the ring holds a copy
	refused := msg{"refused", 2}
	if ch.Send(&refused) {
		t.Fatal("send into a full channel accepted")
	}
	if got := ch.Lost(); got != 1 {
		t.Fatalf("Lost() = %d, want 1", got)
	}
	if ch.buf[0] != (msg{"first", 1}) || refused != (msg{"refused", 2}) {
		t.Fatalf("after the refusal: slot %+v, sender's %+v", ch.buf[0], refused)
	}
	if m := ch.Pop(); m == nil || *m != (msg{"first", 1}) || ch.Len() != 0 {
		t.Fatalf("Pop() = %+v, Len() = %d, want the first message alone", m, ch.Len())
	}
}

func TestBoundedCapacityOne(t *testing.T) {
	t.Parallel()
	// The paper's single-message-capacity regime: after any send into an
	// occupied channel, the channel still holds exactly the old message.
	ch := NewBounded[int](1)
	send(ch, 1)
	send(ch, 2)
	send(ch, 3)
	if got := ch.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
	if m, _ := ch.Peek(); m != 1 {
		t.Fatalf("Peek() = %d, want 1", m)
	}
}

func TestBoundedWraparound(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](2)
	for round := 0; round < 10; round++ {
		send(ch, round*2)
		send(ch, round*2+1)
		a, _ := recv(ch)
		b, _ := recv(ch)
		if a != round*2 || b != round*2+1 {
			t.Fatalf("round %d: got %d,%d", round, a, b)
		}
	}
}

func TestBoundedDrop(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](2)
	if ch.Drop() != nil {
		t.Fatal("Drop() on empty channel succeeded")
	}
	send(ch, 1)
	send(ch, 2)
	if ch.Drop() == nil {
		t.Fatal("Drop() failed on non-empty channel")
	}
	if m, _ := ch.Peek(); m != 2 {
		t.Fatalf("after Drop, Peek() = %d, want 2", m)
	}
	if got := ch.Lost(); got != 1 {
		t.Fatalf("Lost() = %d, want 1", got)
	}
}

func TestBoundedPreload(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](3)
	if err := ch.Preload([]int{7, 8}); err != nil {
		t.Fatal(err)
	}
	if got := ch.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	got := ch.Contents()
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("Contents() = %v, want [7 8]", got)
	}
}

func TestBoundedPreloadOverflow(t *testing.T) {
	t.Parallel()
	// The crucial modeling point for Theorem 1: a bounded channel refuses
	// an initial configuration holding more messages than its capacity.
	ch := NewBounded[int](1)
	if err := ch.Preload([]int{1, 2}); err == nil {
		t.Fatal("Preload over capacity succeeded, want error")
	}
}

func TestBoundedPreloadReplacesContents(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](2)
	send(ch, 1)
	if err := ch.Preload([]int{9}); err != nil {
		t.Fatal(err)
	}
	m, ok := recv(ch)
	if !ok || m != 9 {
		t.Fatalf("Recv() = %d,%v, want 9,true", m, ok)
	}
	if _, ok := recv(ch); ok {
		t.Fatal("old contents survived Preload")
	}
}

func TestNewBoundedPanicsOnZeroCapacity(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("NewBounded(0) did not panic")
		}
	}()
	NewBounded[int](0)
}

func TestUnboundedNeverLosesOnSend(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[int]()
	for i := 0; i < 10000; i++ {
		if !send(ch, i) {
			t.Fatalf("unbounded Send(%d) reported loss", i)
		}
	}
	if got := ch.Len(); got != 10000 {
		t.Fatalf("Len() = %d, want 10000", got)
	}
	for i := 0; i < 10000; i++ {
		m, ok := recv(ch)
		if !ok || m != i {
			t.Fatalf("Recv() = %d,%v, want %d,true", m, ok, i)
		}
	}
}

func TestUnboundedPreloadAnyLength(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[int]()
	msgs := make([]int, 5000)
	for i := range msgs {
		msgs[i] = i
	}
	if err := ch.Preload(msgs); err != nil {
		t.Fatal(err)
	}
	if got := ch.Len(); got != 5000 {
		t.Fatalf("Len() = %d, want 5000", got)
	}
}

// TestUnboundedGrowsPastInitialRing wraps the ring (head off zero) before
// forcing it to grow, so growth must carry the contents over head first.
func TestUnboundedGrowsPastInitialRing(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[int]()
	initial := len(ch.buf)
	next, want := 0, 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 3*initial+round; i++ {
			send(ch, next)
			next++
		}
		for i := 0; i < initial+1; i++ {
			if m, ok := recv(ch); !ok || m != want {
				t.Fatalf("round %d: Recv() = %d,%v, want %d,true", round, m, ok, want)
			}
			want++
		}
	}
	if len(ch.buf) <= initial {
		t.Fatalf("ring still %d slots after holding %d messages", len(ch.buf), ch.Len())
	}
	if got := ch.Contents(); len(got) != next-want || got[0] != want || got[len(got)-1] != next-1 {
		t.Fatalf("Contents() = %v, want %d..%d", got, want, next-1)
	}
	if ch.Lost() != 0 || ch.Cap() != Unlimited {
		t.Fatalf("Lost() = %d, Cap() = %d after growth", ch.Lost(), ch.Cap())
	}
}

// TestUnboundedPreloadLongerThanRing preloads more than the ring holds
// into a queue whose head is off zero, then keeps using it.
func TestUnboundedPreloadLongerThanRing(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[int]()
	send(ch, -1)
	send(ch, -2)
	recv(ch)
	msgs := make([]int, 4*len(ch.buf)+1)
	for i := range msgs {
		msgs[i] = i
	}
	if err := ch.Preload(msgs); err != nil {
		t.Fatal(err)
	}
	msgs[0] = 99 // the queue holds a copy
	send(ch, len(msgs))
	for want := 0; want <= len(msgs); want++ {
		if m, ok := recv(ch); !ok || m != want {
			t.Fatalf("Recv() = %d,%v, want %d,true", m, ok, want)
		}
	}
	if _, ok := recv(ch); ok {
		t.Fatal("Recv() on drained channel succeeded")
	}
}

func TestUnboundedDropAndPeek(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[string]()
	send(ch, "x")
	send(ch, "y")
	if m, ok := ch.Peek(); !ok || m != "x" {
		t.Fatalf("Peek() = %q,%v", m, ok)
	}
	ch.Drop()
	if m, ok := ch.Peek(); !ok || m != "y" {
		t.Fatalf("after Drop, Peek() = %q,%v", m, ok)
	}
	if got := ch.Lost(); got != 1 {
		t.Fatalf("Lost() = %d, want 1", got)
	}
}

// TestUnboundedPopSlotHoldsUntilSend checks the Pop contract: the slot a
// pop returned keeps the message while other channels are used, and the
// next send into this channel may write over it.
func TestUnboundedPopSlotHoldsUntilSend(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[string]()
	other := NewUnbounded[string]()
	send(ch, "head")
	m := ch.Pop()
	if m == nil || *m != "head" || ch.Len() != 0 {
		t.Fatalf("Pop() = %v, Len() = %d", m, ch.Len())
	}
	for range 5 {
		send(other, "elsewhere") // grows other's ring
	}
	other.Drop()
	if *m != "head" {
		t.Fatalf("slot reads %q after traffic on another channel, want \"head\"", *m)
	}
	send(ch, "next")
	if got, _ := recv(ch); got != "next" {
		t.Fatalf("Pop() after the send = %q, want \"next\"", got)
	}
	if ch.Pop() != nil {
		t.Fatal("Pop() on a drained channel returned a slot")
	}
}

func TestCapReporting(t *testing.T) {
	t.Parallel()
	if got := NewBounded[int](4).Cap(); got != 4 {
		t.Fatalf("Bounded Cap() = %d, want 4", got)
	}
	if got := NewUnbounded[int]().Cap(); got != Unlimited {
		t.Fatalf("Unbounded Cap() = %d, want Unlimited", got)
	}
}

func TestContentsIsCopy(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](2)
	send(ch, 1)
	c := ch.Contents()
	c[0] = 99
	if m, _ := ch.Peek(); m != 1 {
		t.Fatal("mutating Contents() result affected channel state")
	}
}

// TestPropertyFIFOModuloLoss checks the paper's channel contract with
// random operation sequences: received messages are a subsequence of sent
// messages, in sending order, and the occupancy never exceeds capacity.
func TestPropertyFIFOModuloLoss(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%4) + 1
		r := rng.New(seed)
		ch := NewBounded[int](capacity)
		var sent, received []int
		next := 0
		for op := 0; op < 500; op++ {
			switch r.Intn(3) {
			case 0:
				if send(ch, next) {
					sent = append(sent, next)
				}
				next++
			case 1:
				if m, ok := recv(ch); ok {
					received = append(received, m)
				}
			case 2:
				ch.Drop()
			}
			if ch.Len() > capacity {
				return false
			}
		}
		// received must be a subsequence of sent in order.
		i := 0
		for _, m := range received {
			for i < len(sent) && sent[i] != m {
				i++
			}
			if i == len(sent) {
				return false
			}
			i++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLenMatchesContents checks Len/Contents consistency under
// random workloads in both capacity regimes.
func TestPropertyLenMatchesContents(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, unbounded bool) bool {
		r := rng.New(seed)
		var ch *Queue[int]
		if unbounded {
			ch = NewUnbounded[int]()
		} else {
			ch = NewBounded[int](3)
		}
		for op := 0; op < 300; op++ {
			switch r.Intn(3) {
			case 0:
				send(ch, op)
			case 1:
				recv(ch)
			case 2:
				ch.Drop()
			}
			if ch.Len() != len(ch.Contents()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// transitionLog records every hook invocation.
type transitionLog struct{ calls []bool }

func (l *transitionLog) hook(nonEmpty bool) { l.calls = append(l.calls, nonEmpty) }

func TestTransitionHookBounded(t *testing.T) {
	t.Parallel()
	ch := NewBounded[int](2)
	var log transitionLog
	ch.SetTransition(log.hook)
	send(ch, 1) // empty -> non-empty
	send(ch, 2) // still non-empty: no call
	recv(ch)    // still non-empty: no call
	recv(ch)    // non-empty -> empty
	want := []bool{true, false}
	if len(log.calls) != 2 || log.calls[0] != want[0] || log.calls[1] != want[1] {
		t.Fatalf("hook calls = %v, want %v", log.calls, want)
	}
	// A send lost to a full channel must not fire the hook.
	one := NewBounded[int](1)
	var log2 transitionLog
	one.SetTransition(log2.hook)
	send(one, 1)
	send(one, 2) // lost
	if len(log2.calls) != 1 {
		t.Fatalf("lost send fired the hook: %v", log2.calls)
	}
	one.Drop() // non-empty -> empty, via Pop
	if len(log2.calls) != 2 || log2.calls[1] {
		t.Fatalf("Drop did not fire the emptying transition: %v", log2.calls)
	}
}

func TestTransitionHookPreload(t *testing.T) {
	t.Parallel()
	for _, unbounded := range []bool{false, true} {
		var ch *Queue[int]
		if unbounded {
			ch = NewUnbounded[int]()
		} else {
			ch = NewBounded[int](3)
		}
		var log transitionLog
		ch.SetTransition(log.hook)
		if err := ch.Preload([]int{1, 2}); err != nil { // empty -> non-empty
			t.Fatal(err)
		}
		if err := ch.Preload([]int{9}); err != nil { // non-empty -> non-empty: no call
			t.Fatal(err)
		}
		if err := ch.Preload(nil); err != nil { // non-empty -> empty
			t.Fatal(err)
		}
		want := []bool{true, false}
		if len(log.calls) != 2 || log.calls[0] != want[0] || log.calls[1] != want[1] {
			t.Fatalf("unbounded=%v: hook calls = %v, want %v", unbounded, log.calls, want)
		}
	}
}

func TestTransitionHookUnbounded(t *testing.T) {
	t.Parallel()
	ch := NewUnbounded[int]()
	var log transitionLog
	ch.SetTransition(log.hook)
	send(ch, 1)
	send(ch, 2)
	ch.Drop()
	recv(ch)
	want := []bool{true, false}
	if len(log.calls) != 2 || log.calls[0] != want[0] || log.calls[1] != want[1] {
		t.Fatalf("hook calls = %v, want %v", log.calls, want)
	}
}

func BenchmarkBoundedSendRecv(b *testing.B) {
	ch := NewBounded[int](1)
	for i := 0; i < b.N; i++ {
		ch.Send(&i)
		ch.Pop()
	}
}

func BenchmarkUnboundedSendRecv(b *testing.B) {
	ch := NewUnbounded[int]()
	for i := 0; i < b.N; i++ {
		ch.Send(&i)
		ch.Pop()
	}
}
