package window

import "testing"

// carry moves what a frame from src says (n of src's admitted messages
// aboard) into dst.
func carry(src, dst *Link, n int) {
	dst.Arrive(src.Stamp(), n)
}

func TestWindowAdmitsAtMostC(t *testing.T) {
	a := NewLink(2, 100)
	if !a.Admit() || !a.Admit() {
		t.Fatal("window of 2 refused one of its first two sends")
	}
	if a.Admit() {
		t.Fatal("third send admitted into a window of 2")
	}
	if a.InFlight() != 2 || a.peak != 2 {
		t.Fatalf("in flight %d, peak %d; want 2, 2", a.InFlight(), a.peak)
	}
	a.Cancel()
	if a.InFlight() != 1 || !a.Admit() {
		t.Fatal("Cancel did not give the slot back")
	}
}

// TestCorruptBaseAdmitsAtMostC: a corrupted link whose base lies ahead
// of next — a state only arbitrary initialization holds — still admits c
// messages and no more before an acknowledgment. Read as unsigned
// distance, that gap used to count as room: at c = 2 a gap of 1000
// admitted 1,002.
func TestCorruptBaseAdmitsAtMostC(t *testing.T) {
	for _, c := range []int{1, 2} {
		for _, gap := range []uint64{1, 5, 1000} {
			l := NewLink(c, 100)
			l.Corrupt(l.next+gap, l.next)
			admitted := 0
			for admitted <= c+int(gap) && l.Admit() {
				admitted++
			}
			if admitted != c || l.InFlight() != c || l.peak != c {
				t.Errorf("c = %d, base %d ahead of next: %d admitted with no ack, in flight %d, peak %d; want %d each",
					c, gap, admitted, l.InFlight(), l.peak, c)
			}
		}
	}
}

func TestConsumptionReopensTheWindow(t *testing.T) {
	a, b := NewLink(2, 100), NewLink(2, 500)
	a.Admit()
	a.Admit()
	carry(&a, &b, 2)
	if b.Occupied() != 2 {
		t.Fatalf("receiver holds %d, want 2", b.Occupied())
	}
	// One of two consumed: the pipeline is not empty, nothing to report.
	b.Occupy(-1)
	carry(&b, &a, 0)
	if a.InFlight() != 2 {
		t.Fatalf("a slot was released while a message was still unconsumed (in flight %d)", a.InFlight())
	}
	b.Occupy(-1)
	carry(&b, &a, 0)
	if a.InFlight() != 0 {
		t.Fatalf("in flight %d after everything was consumed and echoed", a.InFlight())
	}
}

func TestStaleAckIsIgnored(t *testing.T) {
	a := NewLink(2, 100)
	a.Admit()
	a.Admit()
	for _, ack := range []uint64{0, 99, 102, 1 << 40} {
		a.Arrive(Header{Ack: ack}, 0)
		if a.InFlight() != 2 {
			t.Fatalf("ack %d, naming nothing outstanding, released a slot", ack)
		}
	}
	a.Arrive(Header{Ack: 100}, 0)
	if a.InFlight() != 1 {
		t.Fatalf("ack of the oldest outstanding sequence left %d in flight, want 1", a.InFlight())
	}
}

func TestEchoWaitsOneTickThenLeavesAlone(t *testing.T) {
	a, b := NewLink(4, 1), NewLink(4, 1)
	a.Admit()
	carry(&a, &b, 1)
	b.Occupy(-1)
	if b.Tick() {
		t.Fatal("first tick after consumption asked for an echo; it must wait for data to ride on")
	}
	if !b.Tick() {
		t.Fatal("second tick asked for no echo")
	}
	carry(&b, &a, 0)
	if a.InFlight() != 0 {
		t.Fatal("echo-only frame did not release the slot")
	}
	if b.Tick() {
		t.Fatal("tick after the echo left asked for another")
	}
	// Data going the other way carries the echo and cancels the timer.
	a.Admit()
	carry(&a, &b, 1)
	b.Occupy(-1)
	b.Tick()
	b.Admit()
	carry(&b, &a, 1)
	if a.InFlight() != 0 {
		t.Fatal("piggybacked acknowledgment did not release the slot")
	}
	if b.Tick() {
		t.Fatal("tick after a piggybacked echo asked for another")
	}
}

func TestProbeReopensAfterLostEchoAndRestart(t *testing.T) {
	a, b := NewLink(2, 100), NewLink(2, 500)
	a.Admit()
	a.Admit()
	carry(&a, &b, 2)
	b.Occupy(-2)
	b.Stamp() // the echo leaves and is lost
	if a.Admit() {
		t.Fatal("send admitted into a shut window")
	}
	carry(&a, &b, 0) // the refusal's probe
	if !b.Probed() || !b.Tick() {
		t.Fatal("probed receiver owes no answer")
	}
	carry(&b, &a, 0)
	if a.InFlight() != 0 {
		t.Fatal("answered probe did not reopen the window")
	}

	// The peer restarts with nothing in its pipeline and no memory.
	a.Admit()
	a.Admit()
	b = NewLink(2, 900)
	if a.Admit() {
		t.Fatal("send admitted into a shut window")
	}
	carry(&a, &b, 0)
	carry(&b, &a, 0)
	if a.InFlight() != 0 {
		t.Fatal("fresh peer's answer did not reopen the window")
	}
}

func TestHoldbackKeepsTheSlot(t *testing.T) {
	a, b := NewLink(2, 1), NewLink(2, 1)
	a.Admit()
	carry(&a, &b, 1) // the fault plane holds message 1 back
	a.Admit()
	carry(&a, &b, 1)
	b.Occupy(-1) // message 2 is delivered first
	carry(&b, &a, 0)
	if a.InFlight() != 2 {
		t.Fatalf("slot released while an earlier message is still held (in flight %d)", a.InFlight())
	}
	b.Occupy(+1) // and duplicated on its way out
	b.Occupy(-2)
	carry(&b, &a, 0)
	if a.InFlight() != 0 {
		t.Fatalf("in flight %d after the pipeline drained", a.InFlight())
	}
}

// TestReopeningIsReported: a refusal probes; the header that reads the
// probe owes a drain, whose answer carries the link's header; the
// acknowledgment that reopens a window which refused a send owes a drain
// too, once, and only after a refusal, and the drain's answer makes the
// refused message due. Every acknowledgment reports what it released.
func TestReopeningIsReported(t *testing.T) {
	a, b := NewLink(1, 100), NewLink(1, 500)
	a.Admit()
	carry(&a, &b, 1)
	b.Occupy(-1)
	if released, owed := a.Arrive(b.Stamp(), 0); released != 1 || owed {
		t.Fatalf("an acknowledgment with no refusal before it: released %d, owed %v; want 1, false", released, owed)
	}
	a.Admit()
	carry(&a, &b, 1)
	if a.Admit() {
		t.Fatal("send admitted into a shut window")
	}
	if _, owed := b.Arrive(a.Stamp(), 0); !owed || !b.Probed() {
		t.Fatalf("the refusal's header: owed %v, probed %v; want a probe that owes a drain", owed, b.Probed())
	}
	b.Occupy(-1)
	if header, repeat := b.Answer(); !header || repeat {
		t.Fatalf("the drain's answer to the probe: header %v, repeat %v; want the header only", header, repeat)
	}
	if released, owed := a.Arrive(b.Stamp(), 0); released != 1 || !owed || a.InFlight() != 0 {
		t.Fatalf("the answer: released %d, owed %v, in flight %d; want 1, true, 0", released, owed, a.InFlight())
	}
	if b.Probed() {
		t.Fatal("the answer left the probe pending")
	}
	if header, repeat := a.Answer(); header || !repeat {
		t.Fatalf("the drain after the reopening: header %v, repeat %v; want the repeat only", header, repeat)
	}
	if released, owed := a.Arrive(b.Stamp(), 0); released != 0 || owed {
		t.Fatalf("a second acknowledgment: released %d, owed %v; want nothing", released, owed)
	}
	// An admission supersedes the refusal: a reopening nothing answered
	// yet owes no repeat once a message left.
	a.Admit()
	a.Admit()
	carry(&a, &b, 1)
	b.Occupy(-1)
	carry(&b, &a, 0)
	if !a.Reopened() || !a.Admit() || a.Reopened() {
		t.Fatal("an admission after the reopening left the refused message owed")
	}
}
