package window

import "testing"

// carry moves what a frame from src says (n of src's admitted messages
// aboard) into dst.
func carry(src, dst *Link, probe bool, n int) {
	dst.Arrive(src.Stamp(probe), n)
}

func TestWindowAdmitsAtMostC(t *testing.T) {
	a := NewLink(2, 100)
	if !a.Admit() || !a.Admit() {
		t.Fatal("window of 2 refused one of its first two sends")
	}
	if a.Admit() {
		t.Fatal("third send admitted into a window of 2")
	}
	if a.InFlight() != 2 || a.Peak() != 2 {
		t.Fatalf("in flight %d, peak %d; want 2, 2", a.InFlight(), a.Peak())
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
			if admitted != c || l.InFlight() != c || l.Peak() != c {
				t.Errorf("c = %d, base %d ahead of next: %d admitted with no ack, in flight %d, peak %d; want %d each",
					c, gap, admitted, l.InFlight(), l.Peak(), c)
			}
		}
	}
}

func TestConsumptionReopensTheWindow(t *testing.T) {
	a, b := NewLink(2, 100), NewLink(2, 500)
	a.Admit()
	a.Admit()
	carry(&a, &b, false, 2)
	if b.Occupied() != 2 {
		t.Fatalf("receiver holds %d, want 2", b.Occupied())
	}
	// One of two consumed: the pipeline is not empty, nothing to report.
	b.Occupy(-1)
	carry(&b, &a, false, 0)
	if a.InFlight() != 2 {
		t.Fatalf("a slot was released while a message was still unconsumed (in flight %d)", a.InFlight())
	}
	b.Occupy(-1)
	carry(&b, &a, false, 0)
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
	carry(&a, &b, false, 1)
	b.Occupy(-1)
	if b.Tick() {
		t.Fatal("first tick after consumption asked for an echo; it must wait for data to ride on")
	}
	if !b.Tick() {
		t.Fatal("second tick asked for no echo")
	}
	carry(&b, &a, false, 0)
	if a.InFlight() != 0 {
		t.Fatal("echo-only frame did not release the slot")
	}
	if b.Tick() {
		t.Fatal("tick after the echo left asked for another")
	}
	// Data going the other way carries the echo and cancels the timer.
	a.Admit()
	carry(&a, &b, false, 1)
	b.Occupy(-1)
	b.Tick()
	b.Admit()
	carry(&b, &a, false, 1)
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
	carry(&a, &b, false, 2)
	b.Occupy(-2)
	b.Stamp(false) // the echo leaves and is lost
	if a.Admit() {
		t.Fatal("send admitted into a shut window")
	}
	carry(&a, &b, true, 0) // the refusal's probe
	if !b.Probed() || !b.Tick() {
		t.Fatal("probed receiver owes no answer")
	}
	carry(&b, &a, false, 0)
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
	carry(&a, &b, true, 0)
	carry(&b, &a, false, 0)
	if a.InFlight() != 0 {
		t.Fatal("fresh peer's answer did not reopen the window")
	}
}

func TestHoldbackKeepsTheSlot(t *testing.T) {
	a, b := NewLink(2, 1), NewLink(2, 1)
	a.Admit()
	carry(&a, &b, false, 1) // the fault plane holds message 1 back
	a.Admit()
	carry(&a, &b, false, 1)
	b.Occupy(-1) // message 2 is delivered first
	carry(&b, &a, false, 0)
	if a.InFlight() != 2 {
		t.Fatalf("slot released while an earlier message is still held (in flight %d)", a.InFlight())
	}
	b.Occupy(+1) // and duplicated on its way out
	b.Occupy(-2)
	carry(&b, &a, false, 0)
	if a.InFlight() != 0 {
		t.Fatalf("in flight %d after the pipeline drained", a.InFlight())
	}
}

// TestReopeningIsReported: the acknowledgment that reopens a window
// which refused a send reports the reopening, once, and only after a
// refusal; the answer to the refusal's probe clears the probe. Every
// acknowledgment reports what it released.
func TestReopeningIsReported(t *testing.T) {
	a, b := NewLink(1, 100), NewLink(1, 500)
	a.Admit()
	carry(&a, &b, false, 1)
	b.Occupy(-1)
	if released, reopened := a.Arrive(b.Stamp(false), 0); released != 1 || reopened {
		t.Fatalf("an acknowledgment with no refusal before it: released %d, reopened %v; want 1, false", released, reopened)
	}
	a.Admit()
	carry(&a, &b, false, 1)
	if a.Admit() {
		t.Fatal("send admitted into a shut window")
	}
	carry(&a, &b, true, 0) // the refusal's probe
	if !b.Probed() {
		t.Fatal("the receiver saw no probe")
	}
	b.Occupy(-1)
	if released, reopened := a.Arrive(b.Stamp(false), 0); released != 1 || !reopened || a.InFlight() != 0 {
		t.Fatalf("the answer: released %d, reopened %v, in flight %d; want 1, true, 0", released, reopened, a.InFlight())
	}
	if b.Probed() {
		t.Fatal("the answer left the probe pending")
	}
	if released, reopened := a.Arrive(b.Stamp(false), 0); released != 0 || reopened {
		t.Fatalf("a second acknowledgment: released %d, reopened %v; want nothing", released, reopened)
	}
}
