package core

import (
	"math/rand"
	"testing"
)

// stubRand is a deterministic core.Rand whose Float64 stream is scripted
// and whose other draws are fixed, so tests can force each policy branch.
type stubRand struct {
	floats []float64
	i      int
}

func (s *stubRand) Float64() float64 {
	if s.i >= len(s.floats) {
		return 0.999999
	}
	v := s.floats[s.i]
	s.i++
	return v
}
func (s *stubRand) Intn(n int) int { return 0 }
func (s *stubRand) Uint64() uint64 { return 7 }
func (s *stubRand) Bool() bool     { return false }

// panicRand fails the test on any draw: installed behind an empty plan to
// pin that a zero-value plan consumes no randomness at all.
type panicRand struct{ t *testing.T }

func (p panicRand) Float64() float64 { p.t.Fatal("injector drew an unscripted Float64"); return 0 }
func (p panicRand) Intn(n int) int   { p.t.Fatal("injector drew Intn"); return 0 }
func (p panicRand) Uint64() uint64   { p.t.Fatal("injector drew Uint64"); return 0 }
func (p panicRand) Bool() bool       { p.t.Fatal("injector drew Bool"); return false }

func msg(kind string) Message {
	return Message{Instance: "pif", Kind: kind, B: Payload{Tag: "b", Num: 1}}
}

func TestEmptyPlanPassesEverythingWithoutRandomness(t *testing.T) {
	inj := NewInjector(&FaultPlan{}, panicRand{t})
	for i := 0; i < 10; i++ {
		out, fate := inj.Filter(0, 1, msg("PIF"), int64(i))
		if fate != FateDeliver || len(out) != 1 || !out[0].Equal(msg("PIF")) {
			t.Fatalf("empty plan altered delivery: fate=%v out=%v", fate, out)
		}
	}
	if got := inj.Stats().Total(); got != 0 {
		t.Fatalf("empty plan counted %d faults", got)
	}
	if rel := inj.Flush(100); rel != nil {
		t.Fatalf("empty plan flushed %v", rel)
	}
}

func TestDropAndDuplicate(t *testing.T) {
	plan := &FaultPlan{Default: LinkFaults{DropRate: 0.5, DupRate: 0.5}}
	// First message: drop roll hits (0.1 < 0.5). Second: drop misses
	// (0.9), dup hits (0.1).
	r := &stubRand{floats: []float64{0.1, 0.9, 0.1}}
	inj := NewInjector(plan, r)

	out, fate := inj.Filter(0, 1, msg("PIF"), 0)
	if fate != FateDrop || len(out) != 0 {
		t.Fatalf("want drop, got fate=%v out=%v", fate, out)
	}
	out, fate = inj.Filter(0, 1, msg("PIF"), 1)
	if fate != FateDeliver || len(out) != 2 {
		t.Fatalf("want duplicate pair, got fate=%v out=%v", fate, out)
	}
	st := inj.Stats()
	if st.Drops != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v, want 1 drop 1 duplicate", st)
	}
}

func TestReorderSwapsAdjacentMessages(t *testing.T) {
	plan := &FaultPlan{Default: LinkFaults{ReorderRate: 0.5}}
	// First message: reorder hits (held). Second: reorder misses, so it
	// delivers first and the held one is released behind it.
	r := &stubRand{floats: []float64{0.1, 0.9}}
	inj := NewInjector(plan, r)

	m1, m2 := msg("ONE"), msg("TWO")
	out, fate := inj.Filter(0, 1, m1, 0)
	if fate != FateHold || len(out) != 0 {
		t.Fatalf("first message not held: fate=%v out=%v", fate, out)
	}
	if inj.Held() != 1 {
		t.Fatalf("Held() = %d, want 1", inj.Held())
	}
	out, fate = inj.Filter(0, 1, m2, 1)
	if fate != FateDeliver || len(out) != 2 || !out[0].Equal(m2) || !out[1].Equal(m1) {
		t.Fatalf("want [TWO ONE], got fate=%v out=%v", fate, out)
	}
	if inj.Held() != 0 {
		t.Fatalf("Held() = %d after release, want 0", inj.Held())
	}
	if st := inj.Stats(); st.Reorders != 1 {
		t.Fatalf("stats = %+v, want 1 reorder", st)
	}
}

// TestReorderHoldSurvivesFlush pins the property that makes the swap
// real on the substrates: the periodic Flush — which sim runs every step
// and udp every receive iteration — must NOT release a reorder holdback
// before the next message on the link has had a chance to overtake it.
// Only after the grace period may Flush deliver it (a quiet link degrades
// the reorder into a bounded delay, never a permanent loss).
func TestReorderHoldSurvivesFlush(t *testing.T) {
	plan := &FaultPlan{Default: LinkFaults{ReorderRate: 0.5}}
	r := &stubRand{floats: []float64{0.1, 0.9}}
	inj := NewInjector(plan, r)

	m1, m2 := msg("ONE"), msg("TWO")
	if _, fate := inj.Filter(0, 1, m1, 0); fate != FateHold {
		t.Fatalf("first message not held: fate=%v", fate)
	}
	// Immediate flushes (the substrates' cadence) must not pre-empt the
	// swap.
	for now := int64(0); now < ReorderFlushGrace; now += 8 {
		if rel := inj.Flush(now); len(rel) != 0 {
			t.Fatalf("Flush(%d) pre-empted the reorder: %v", now, rel)
		}
	}
	// The next message overtakes the held one: a genuine adjacent swap.
	out, fate := inj.Filter(0, 1, m2, 10)
	if fate != FateDeliver || len(out) != 2 || !out[0].Equal(m2) || !out[1].Equal(m1) {
		t.Fatalf("want [TWO ONE], got fate=%v out=%v", fate, out)
	}

	// On a quiet link the grace period bounds the holdback.
	r2 := &stubRand{floats: []float64{0.1}}
	inj2 := NewInjector(plan, r2)
	if _, fate := inj2.Filter(0, 1, m1, 0); fate != FateHold {
		t.Fatal("message not held")
	}
	if rel := inj2.Flush(ReorderFlushGrace - 1); len(rel) != 0 {
		t.Fatalf("released before the grace period: %v", rel)
	}
	if rel := inj2.Flush(ReorderFlushGrace); len(rel) != 1 || !rel[0].Msg.Equal(m1) {
		t.Fatalf("quiet-link holdback not released after grace: %v", rel)
	}
}

func TestDelayReleasedByFlushAfterTicks(t *testing.T) {
	plan := &FaultPlan{Default: LinkFaults{DelayRate: 0.5, DelayTicks: 10}}
	r := &stubRand{floats: []float64{0.1}}
	inj := NewInjector(plan, r)

	m := msg("PIF")
	if _, fate := inj.Filter(0, 1, m, 0); fate != FateHold {
		t.Fatalf("message not held, fate=%v", fate)
	}
	if rel := inj.Flush(5); len(rel) != 0 {
		t.Fatalf("released early: %v", rel)
	}
	rel := inj.Flush(10)
	if len(rel) != 1 || !rel[0].Msg.Equal(m) || rel[0].From != 0 || rel[0].To != 1 {
		t.Fatalf("Flush(10) = %v, want the delayed message", rel)
	}
	if st := inj.Stats(); st.Delays != 1 {
		t.Fatalf("stats = %+v, want 1 delay", st)
	}
}

// TestCorruptKeepsRoutingEnvelope pins what corruption means on a channel
// that only loses: the garbled message is discarded at the boundary — no
// message reaches the receiver, the loss is counted in Corrupts and not in
// Drops, nothing is held, and the caller's message (in-flight duplicates
// may alias its blob) is untouched. Only Float64 is ever drawn.
func TestCorruptKeepsRoutingEnvelope(t *testing.T) {
	for name, in := range map[string]Message{
		"blob-free": {Instance: "me/pif", Kind: "PIF", B: Payload{Tag: "real", Num: 42}, State: 3, Echo: 3},
		"blob":      {Instance: "pif", Kind: "PIF", B: Payload{Tag: "app", Blob: []byte("immutable-original-body")}},
		"max-blob":  {Instance: "pif", Kind: "PIF", F: Payload{Tag: "app", Blob: make([]byte, MaxBlobLen)}},
	} {
		inj := NewInjector(&FaultPlan{Default: LinkFaults{CorruptRate: 0.999}}, &floatsOnly{panicRand{t}, []float64{0.5}, 0})
		before := in
		before.B.Blob = append([]byte(nil), in.B.Blob...)
		before.F.Blob = append([]byte(nil), in.F.Blob...)
		held := inj.Held()

		out, fate := inj.Filter(0, 1, in, 0)
		if fate != FateDrop || len(out) != 0 {
			t.Fatalf("%s: corrupted message not lost: fate=%v out=%v", name, fate, out)
		}
		if st := inj.Stats(); st.Corrupts != 1 || st.Total() != 1 {
			t.Fatalf("%s: stats = %+v, want exactly 1 corrupt", name, st)
		}
		if inj.Held() != held {
			t.Fatalf("%s: a lost message is held: Held() %d -> %d", name, held, inj.Held())
		}
		if !in.Equal(before) {
			t.Fatalf("%s: corruption touched the caller's message: %v", name, in)
		}
	}
}

// floatsOnly is panicRand with a Float64 script whose draws it counts:
// the injector decides every fate with one Float64 per nonzero rate and
// nothing else.
type floatsOnly struct {
	panicRand
	floats []float64
	drawn  int
}

func (r *floatsOnly) Float64() float64 {
	if r.drawn == len(r.floats) {
		return r.panicRand.Float64()
	}
	r.drawn++
	return r.floats[r.drawn-1]
}

// TestFilterDrawOrder pins the decision stream: one Float64 per nonzero
// rate, in the order drop, corrupt, delay, reorder, duplicate, stopping at
// the first policy that fires. A plan with CorruptRate 0 therefore draws
// exactly what it drew before corruption became a loss, and seeded runs
// that never corrupted replay unchanged.
func TestFilterDrawOrder(t *testing.T) {
	rates := LinkFaults{DropRate: 0.1, DelayRate: 0.2, DelayTicks: 5, ReorderRate: 0.3, DupRate: 0.4}
	withCorrupt := rates
	withCorrupt.CorruptRate = 0.05
	for _, tc := range []struct {
		name   string
		faults LinkFaults
		floats []float64 // every one must be consumed, and no more
		fate   Fate
		out    int
		want   FaultStats
	}{
		{"drop", rates, []float64{0.05}, FateDrop, 0, FaultStats{Drops: 1}},
		{"delay", rates, []float64{0.15, 0.15}, FateHold, 0, FaultStats{Delays: 1}},
		{"reorder", rates, []float64{0.5, 0.25, 0.25}, FateHold, 0, FaultStats{Reorders: 1}},
		{"duplicate", rates, []float64{0.5, 0.5, 0.5, 0.35}, FateDeliver, 2, FaultStats{Duplicates: 1}},
		{"deliver", rates, []float64{0.5, 0.5, 0.5, 0.5}, FateDeliver, 1, FaultStats{}},
		{"corrupt", withCorrupt, []float64{0.5, 0.01}, FateDrop, 0, FaultStats{Corrupts: 1}},
		{"corrupt-miss", withCorrupt, []float64{0.5, 0.07, 0.5, 0.5, 0.5}, FateDeliver, 1, FaultStats{}},
	} {
		r := &floatsOnly{panicRand{t}, tc.floats, 0}
		inj := NewInjector(&FaultPlan{Default: tc.faults}, r)
		out, fate := inj.Filter(0, 1, msg("PIF"), 0)
		if fate != tc.fate || len(out) != tc.out {
			t.Errorf("%s: fate=%v out=%d, want fate=%v out=%d", tc.name, fate, len(out), tc.fate, tc.out)
		}
		if r.drawn != len(tc.floats) {
			t.Errorf("%s: drew %d Float64, want %d", tc.name, r.drawn, len(tc.floats))
		}
		if st := inj.Stats(); st != tc.want {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, st, tc.want)
		}
	}
}

func TestPartitionWindowCutsAndHeals(t *testing.T) {
	plan := &FaultPlan{Partitions: []PartitionWindow{{From: 10, Until: 20, GroupA: []ProcID{0, 1}}}}
	inj := NewInjector(plan, panicRand{t}) // window checks draw nothing

	// Before the window: crossing traffic passes.
	if _, fate := inj.Filter(0, 2, msg("PIF"), 5); fate != FateDeliver {
		t.Fatal("message dropped before the window opened")
	}
	// Open: crossing traffic dropped, same-side traffic passes.
	if _, fate := inj.Filter(0, 2, msg("PIF"), 15); fate != FateDrop {
		t.Fatal("crossing message survived the open partition")
	}
	if _, fate := inj.Filter(2, 0, msg("PIF"), 15); fate != FateDrop {
		t.Fatal("reverse crossing message survived the open partition")
	}
	if _, fate := inj.Filter(0, 1, msg("PIF"), 15); fate != FateDeliver {
		t.Fatal("same-side message dropped")
	}
	// Healed.
	if _, fate := inj.Filter(0, 2, msg("PIF"), 20); fate != FateDeliver {
		t.Fatal("message dropped after the heal")
	}
	if st := inj.Stats(); st.PartitionDrops != 2 {
		t.Fatalf("stats = %+v, want 2 partition drops", st)
	}
}

func TestCrashWindowConsumesArrivalsAndEnds(t *testing.T) {
	plan := &FaultPlan{Crashes: []CrashWindow{{Proc: 1, From: 0, Until: 10}}}
	inj := NewInjector(plan, panicRand{t})

	if !plan.Down(1, 5) || plan.Down(1, 10) || plan.Down(0, 5) {
		t.Fatal("Down window arithmetic wrong")
	}
	if _, fate := inj.Filter(0, 1, msg("PIF"), 5); fate != FateDrop {
		t.Fatal("arrival at a down process not consumed")
	}
	if _, fate := inj.Filter(0, 1, msg("PIF"), 10); fate != FateDeliver {
		t.Fatal("arrival after restart dropped")
	}
	if st := inj.Stats(); st.CrashDrops != 1 {
		t.Fatalf("stats = %+v, want 1 crash drop", st)
	}
}

func TestHeldMessagesSurviveCrashAndPartition(t *testing.T) {
	plan := &FaultPlan{
		Default: LinkFaults{DelayRate: 0.5, DelayTicks: 1},
		Crashes: []CrashWindow{{Proc: 1, From: 2, Until: 6}},
	}
	r := &stubRand{floats: []float64{0.1}}
	inj := NewInjector(plan, r)
	m := msg("PIF")
	if _, fate := inj.Filter(0, 1, m, 0); fate != FateHold {
		t.Fatal("message not held")
	}
	// Expired while the receiver is down: Flush must keep holding it.
	if rel := inj.Flush(4); len(rel) != 0 {
		t.Fatalf("flushed to a down process: %v", rel)
	}
	if rel := inj.Flush(6); len(rel) != 1 || !rel[0].Msg.Equal(m) {
		t.Fatalf("held message lost across the crash window: %v", rel)
	}
}

// TestTrafficReleasesOnlyExpiredHoldbacks: a message-less header on a
// link releases that link's holdbacks whose trafficAt has passed — a
// reorder holdback at once, a delayed message only once its delay ran
// out — and nothing on another link or instance. Inside a crash window
// for the receiver or a partition cutting the link it releases nothing,
// and whatever it was offered stays held for later traffic.
func TestTrafficReleasesOnlyExpiredHoldbacks(t *testing.T) {
	plan := &FaultPlan{
		Default:    LinkFaults{DelayRate: 0.5, DelayTicks: 10, ReorderRate: 0.5},
		Crashes:    []CrashWindow{{Proc: 1, From: 20, Until: 24}},
		Partitions: []PartitionWindow{{From: 24, Until: 28, GroupA: []ProcID{0}}},
	}
	// Delay hits for the first message; delay misses and reorder hits
	// for the second and the third.
	inj := NewInjector(plan, &floatsOnly{panicRand{t}, []float64{0.1, 0.9, 0.1, 0.9, 0.1}, 0})
	delayed, reordered := msg("DELAYED"), msg("REORDERED")
	for _, m := range []Message{delayed, reordered} {
		if _, fate := inj.Filter(0, 1, m, 0); fate != FateHold {
			t.Fatalf("%s not held: fate=%v", m.Kind, fate)
		}
	}
	if rel := inj.Traffic(1, 0, "pif", 0); len(rel) != 0 {
		t.Fatalf("traffic on the reverse link released %v", rel)
	}
	if rel := inj.Traffic(0, 1, "other", 0); len(rel) != 0 {
		t.Fatalf("traffic on another instance released %v", rel)
	}
	if rel := inj.Traffic(0, 1, "pif", 0); len(rel) != 1 || !rel[0].Equal(reordered) {
		t.Fatalf("Traffic(0) = %v, want the reorder holdback alone", rel)
	}
	if rel := inj.Traffic(0, 1, "pif", 9); len(rel) != 0 || inj.Held() != 1 {
		t.Fatalf("Traffic(9) = %v with %d held, want nothing before the delay ran out", rel, inj.Held())
	}
	if rel := inj.Traffic(0, 1, "pif", 10); len(rel) != 1 || !rel[0].Equal(delayed) || inj.Held() != 0 {
		t.Fatalf("Traffic(10) = %v with %d held, want the delayed message and none left", rel, inj.Held())
	}

	if _, fate := inj.Filter(0, 1, reordered, 19); fate != FateHold {
		t.Fatalf("third message not held: fate=%v", fate)
	}
	if rel := inj.Traffic(0, 1, "pif", 20); len(rel) != 0 {
		t.Fatalf("traffic to a down receiver released %v", rel)
	}
	if rel := inj.Traffic(0, 1, "pif", 25); len(rel) != 0 {
		t.Fatalf("traffic across an open partition released %v", rel)
	}
	if rel := inj.Traffic(0, 1, "pif", 28); len(rel) != 1 || !rel[0].Equal(reordered) {
		t.Fatalf("Traffic after the windows = %v, want the holdback they kept", rel)
	}
	if st := inj.Stats(); st.Total() != 3 {
		t.Fatalf("stats = %+v, want the three holds and nothing counted by Traffic", st)
	}
}

// TestTrafficDrawsNothing: Traffic leaves the random stream where it was,
// so a seeded run's later fates do not depend on how many message-less
// headers arrived. Twin injectors on one script see the same messages;
// only one of them also sees headers, and afterwards both decide the same
// fates.
func TestTrafficDrawsNothing(t *testing.T) {
	plan := &FaultPlan{Default: LinkFaults{DropRate: 0.1, DelayRate: 0.1, DelayTicks: 3, ReorderRate: 0.2, DupRate: 0.1}}
	r := rand.New(rand.NewSource(1))
	script := make([]float64, 4*200)
	for i := range script {
		script[i] = r.Float64()
	}
	withHeaders := NewInjector(plan, &stubRand{floats: script})
	twin := NewInjector(plan, &stubRand{floats: script})
	released := 0
	for now := int64(0); now < 200; now++ {
		m := msg("PIF")
		m.B.Num = now
		_, fate := withHeaders.Filter(0, 1, m, now)
		_, twinFate := twin.Filter(0, 1, m, now)
		if fate != twinFate {
			t.Fatalf("message %d: fate %v, the twin's %v", now, fate, twinFate)
		}
		released += len(withHeaders.Traffic(0, 1, "pif", now))
	}
	if released == 0 {
		t.Fatal("the headers released nothing: the test exercised no holdback")
	}
	a, b := withHeaders.Stats(), twin.Stats()
	if a != b {
		t.Fatalf("stats %+v, the twin's %+v", a, b)
	}
}

func TestPerLinkOverride(t *testing.T) {
	plan := &FaultPlan{
		Default: LinkFaults{},
		Links:   map[LinkSel]LinkFaults{{From: 0, To: 1}: {DropRate: 0.5}},
	}
	r := &stubRand{floats: []float64{0.1}}
	inj := NewInjector(plan, r)
	if _, fate := inj.Filter(0, 1, msg("PIF"), 0); fate != FateDrop {
		t.Fatal("override link did not drop")
	}
	// The reverse link has the (empty) default policy: no draw, no drop.
	inj2 := NewInjector(plan, panicRand{t})
	if _, fate := inj2.Filter(1, 0, msg("PIF"), 0); fate != FateDeliver {
		t.Fatal("default link dropped")
	}
}

func TestValidate(t *testing.T) {
	bad := []*FaultPlan{
		{Default: LinkFaults{DropRate: 1.0}},
		{Default: LinkFaults{DupRate: -0.1}},
		{Default: LinkFaults{DelayTicks: -1}},
		{Links: map[LinkSel]LinkFaults{{0, 1}: {CorruptRate: 2}}},
		{Partitions: []PartitionWindow{{From: 10, Until: 5}}},
		{Crashes: []CrashWindow{{Proc: 0, From: 10, Until: 5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated", i)
		}
	}
	ok := &FaultPlan{
		Default:    LinkFaults{DropRate: 0.2, DupRate: 0.1, ReorderRate: 0.1, DelayRate: 0.1, DelayTicks: 5, CorruptRate: 0.05},
		Partitions: []PartitionWindow{{From: 0, Until: 10, GroupA: []ProcID{0}}},
		Crashes:    []CrashWindow{{Proc: 1, From: 5, Until: 15}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}
