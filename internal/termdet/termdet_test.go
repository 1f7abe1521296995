package termdet

import (
	"testing"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/sim"
)

// tokenApp is a toy diffusing computation: tokens hop between processes
// with a time-to-live; the computation terminates when every token's TTL
// is exhausted. Deficit-counting termination detection assumes the
// application's messages are RELIABLE (the classical assumption: a lost
// message leaves the global deficit nonzero forever), so the app performs
// its own retransmit-until-ack transfer with idempotent receipt — which
// also makes it a realistic workload.
type tokenApp struct {
	inst    string
	self    core.ProcID
	n       int
	pending []int // TTLs of tokens held locally, waiting to be forwarded
	out     *transfer
	nextID  int64
	seen    map[int64]bool
	sent    int64
	recv    int64
}

// transfer is an unacknowledged outgoing token.
type transfer struct {
	id  int64
	ttl int
	to  core.ProcID
}

func (a *tokenApp) Instance() string { return a.inst }

// Passive: no tokens waiting and no transfer in flight.
func (a *tokenApp) Passive() bool { return len(a.pending) == 0 && a.out == nil }

func (a *tokenApp) Counts() (int64, int64) { return a.sent, a.recv }

func (a *tokenApp) Step(env core.Env) bool {
	if a.out != nil {
		// Retransmit until acknowledged (loss-tolerant transfer).
		env.Send(a.out.to, core.Message{Instance: a.inst, Kind: "TOKEN",
			B: core.Payload{Num: a.out.id}, F: core.Payload{Num: int64(a.out.ttl)}})
		return true
	}
	if len(a.pending) == 0 {
		return false
	}
	ttl := a.pending[0]
	a.pending = a.pending[1:]
	if ttl <= 0 {
		return true // token dies here
	}
	a.nextID++
	id := int64(a.self)<<32 | a.nextID
	a.out = &transfer{id: id, ttl: ttl - 1, to: core.ProcID((int(a.self) + 1) % a.n)}
	a.sent++
	env.Send(a.out.to, core.Message{Instance: a.inst, Kind: "TOKEN",
		B: core.Payload{Num: id}, F: core.Payload{Num: int64(a.out.ttl)}})
	return true
}

func (a *tokenApp) Deliver(env core.Env, from core.ProcID, m core.Message) {
	switch m.Kind {
	case "TOKEN":
		// Acknowledge every copy; count and enqueue only the first.
		env.Send(from, core.Message{Instance: a.inst, Kind: "TOKEN-ACK", B: core.Payload{Num: m.B.Num}})
		if a.seen == nil {
			a.seen = make(map[int64]bool)
		}
		if !a.seen[m.B.Num] {
			a.seen[m.B.Num] = true
			a.recv++
			a.pending = append(a.pending, int(m.F.Num))
		}
	case "TOKEN-ACK":
		if a.out != nil && a.out.id == m.B.Num {
			a.out = nil
		}
	}
}

// build assembles n processes each running a token app plus a detector.
func build(n int, opts ...sim.Option) (*sim.Network, []*Detector, []*tokenApp) {
	detectors := make([]*Detector, n)
	apps := make([]*tokenApp, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		apps[i] = &tokenApp{inst: "app", self: core.ProcID(i), n: n}
		detectors[i] = New("td", core.ProcID(i), n, apps[i])
		stacks[i] = append(core.Stack{apps[i]}, detectors[i].Machines()...)
	}
	return sim.New(stacks, opts...), detectors, apps
}

// appQuiescent reports whether the application has globally terminated:
// no pending tokens and no app messages in transit.
func appQuiescent(net *sim.Network, apps []*tokenApp) bool {
	for _, a := range apps {
		if !a.Passive() {
			return false
		}
	}
	for _, k := range net.Links() {
		if k.Instance != "app" {
			continue
		}
		if net.Link(k).Len() > 0 {
			return false
		}
	}
	return true
}

func TestDetectsTerminationOfIdleApp(t *testing.T) {
	t.Parallel()
	net, detectors, _ := build(3, sim.WithSeed(3))
	if !detectors[0].Invoke(net.Env(0)) {
		t.Fatal("Invoke rejected")
	}
	if err := net.RunUntil(detectors[0].Done, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if !detectors[0].Terminated {
		t.Fatal("idle application not declared terminated")
	}
	if detectors[0].Waves < 2 {
		t.Fatalf("declared after %d waves, want >= 2 (double-wave criterion)", detectors[0].Waves)
	}
}

func TestDeclaresOnlyWhenActuallyTerminated(t *testing.T) {
	t.Parallel()
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 1)
		net, detectors, apps := build(3, sim.WithSeed(seed))
		// Seed the computation with tokens that hop for a while.
		apps[0].pending = []int{8, 5}
		apps[1].pending = []int{6}

		if !detectors[1].Invoke(net.Env(1)) {
			t.Fatal("Invoke rejected")
		}
		declaredEarly := false
		err := net.RunUntil(func() bool {
			if detectors[1].Done() {
				if !appQuiescent(net, apps) {
					declaredEarly = true
				}
				return true
			}
			return false
		}, 10_000_000)
		if err != nil {
			t.Fatalf("trial %d: detection never completed: %v", trial, err)
		}
		if declaredEarly {
			t.Fatalf("trial %d: termination declared while the application was still active", trial)
		}
		if !detectors[1].Terminated {
			t.Fatalf("trial %d: detection completed without a verdict", trial)
		}
	}
}

func TestCorruptedDetectorStillSound(t *testing.T) {
	t.Parallel()
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial + 100)
		net, detectors, apps := build(3, sim.WithSeed(seed), sim.WithLossRate(0.1))
		// Corrupt detector machines and detector channels; the app keeps
		// honest counters (it is the observed application, not protocol).
		r := rng.New(rng.Mix(seed, 13))
		for _, d := range detectors {
			d.Corrupt(r)
			d.PIF.Corrupt(r)
		}
		config.FillChannels(net, r, config.Options{})
		apps[2].pending = []int{10}

		requested := false
		declaredEarly := false
		err := net.RunUntil(func() bool {
			if !requested {
				requested = detectors[0].Invoke(net.Env(0))
				return false
			}
			if detectors[0].Done() && detectors[0].Terminated {
				if !appQuiescent(net, apps) {
					declaredEarly = true
				}
				return true
			}
			return false
		}, 20_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if declaredEarly {
			t.Fatalf("trial %d: corrupted start led to a premature declaration", trial)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	t.Parallel()
	cases := [][2]int64{{0, 0}, {1, 0}, {0, 1}, {12345, 67890}, {1<<countBits - 1, 1<<countBits - 1}}
	for _, c := range cases {
		s, r := unpack(pack(c[0], c[1]))
		if s != c[0] || r != c[1] {
			t.Errorf("pack/unpack(%d,%d) = (%d,%d)", c[0], c[1], s, r)
		}
	}
}

func TestGarbageProbeAnsweredAsActive(t *testing.T) {
	t.Parallel()
	d := New("td", 0, 2, nil)
	if got := d.onProbe(nil, 1, core.Payload{Tag: "garbage"}); got.Tag != TagActive {
		t.Fatalf("garbage probe answered %s, want %s (the safe direction)", got.Tag, TagActive)
	}
}

func TestGarbageFeedbackCountsAsActivity(t *testing.T) {
	t.Parallel()
	d := New("td", 0, 2, nil)
	d.cur = summary{allPassive: true}
	d.onReply(nil, 1, core.Payload{Tag: "garbage"})
	if d.cur.allPassive {
		t.Fatal("garbage feedback left the wave all-passive")
	}
}

func TestInvokeRejectedWhileBusy(t *testing.T) {
	t.Parallel()
	net, detectors, _ := build(2)
	if !detectors[0].Invoke(net.Env(0)) {
		t.Fatal("first Invoke rejected")
	}
	if detectors[0].Invoke(net.Env(0)) {
		t.Fatal("second Invoke accepted while busy")
	}
}

func TestConstructorValidation(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("New with n=1 did not panic")
		}
	}()
	New("td", 0, 1, nil)
}
