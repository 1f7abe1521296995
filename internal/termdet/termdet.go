// Package termdet implements snap-stabilizing termination detection, the
// last application the paper names for PIF ("Reset, Snapshot, Leader
// Election, and Termination Detection", §4.1).
//
// The detector observes an underlying application whose processes are
// active or passive and exchange application messages. It repeatedly runs
// PIF waves collecting, from every process, the triple
//
//	(passive?, messages sent, messages received)
//
// and declares termination after two consecutive waves in which every
// process was passive, the global send and receive counts were equal, and
// nothing changed between the waves — the classical double-wave criterion
// (Dijkstra–Feijen–van Gasteren style): a first wave alone can be fooled
// by an in-flight message re-activating an already-probed process, but
// any such activity changes a counter and invalidates the second wave.
//
// Snap-stabilization is inherited from PIF: every wave's collected values
// are genuinely produced for that wave (Theorem 2), and the start action
// discards any (possibly corrupted) previous-wave summary, so a started
// detection always rests on at least two complete genuine waves. The
// detector declares only when the application has terminated; it runs
// forever when the application does not terminate — that conditional
// liveness is the specification of the problem.
package termdet

import (
	"fmt"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
)

// TagProbe is the broadcast payload tag of detection waves.
const TagProbe = "TD"

// Reply payload tags: the responder's activity status travels in the tag,
// the packed counters in Num.
const (
	TagPassive = "TD-PASSIVE"
	TagActive  = "TD-ACTIVE"
)

// countBits is the width of each packed counter; counts must stay below
// 2^countBits.
const countBits = 30

// App exposes the underlying application at one process to the detector.
// Methods are called inside atomic actions.
type App interface {
	// Passive reports whether the process has no pending work.
	Passive() bool
	// Counts returns the number of application messages this process has
	// sent and received so far. Each must stay below 2^30.
	Counts() (sent, recv int64)
}

// summary aggregates one complete wave.
type summary struct {
	allPassive bool
	sent, recv int64
	replies    int
}

// Detector is one process's instance of the termination detector.
type Detector struct {
	pif.Client
	self core.ProcID
	n    int

	// Terminated is the output verdict of the last completed detection.
	Terminated bool
	// Waves counts the waves of the current detection (diagnostic).
	Waves int

	// App is the local application adapter (required at every process).
	App App

	cur      summary
	prev     summary
	havePrev bool
}

var (
	_ core.Machine     = (*Detector)(nil)
	_ core.Snapshotter = (*Detector)(nil)
	_ core.Corruptible = (*Detector)(nil)
)

// New returns a detector for process self.
func New(inst string, self core.ProcID, n int, app App, pifOpts ...pif.Option) *Detector {
	d := &Detector{self: self, n: n, App: app}
	d.Client = pif.NewClient(inst, self, n, pif.Callbacks{
		OnBroadcast: d.onProbe,
		OnFeedback:  d.onReply,
	}, pifOpts...)
	return d
}

// Machines returns the stack fragment in text order.
func (d *Detector) Machines() core.Stack { return core.Stack{d, d.PIF} }

// pack encodes (sent, recv) into one payload number.
func pack(sent, recv int64) int64 { return sent<<countBits | recv }

// unpack reverses pack.
func unpack(num int64) (sent, recv int64) {
	return num >> countBits, num & (1<<countBits - 1)
}

// onProbe answers a detection probe with this process's local report.
func (d *Detector) onProbe(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
	if b.Tag != TagProbe || d.App == nil {
		return core.Payload{Tag: TagActive} // garbage probe: safe answer
	}
	sent, recv := d.App.Counts()
	tag := TagActive
	if d.App.Passive() {
		tag = TagPassive
	}
	return core.Payload{Tag: tag, Num: pack(sent, recv)}
}

// onReply folds one feedback into the current wave summary.
func (d *Detector) onReply(_ core.Env, _ core.ProcID, f core.Payload) {
	switch f.Tag {
	case TagPassive:
		// keep allPassive as is
	case TagActive:
		d.cur.allPassive = false
	default:
		// Garbage feedback can only occur in non-started computations;
		// treat as activity, the safe direction.
		d.cur.allPassive = false
		return
	}
	sent, recv := unpack(f.Num)
	d.cur.sent += sent
	d.cur.recv += recv
	d.cur.replies++
}

// startWave resets the wave accumulator with the local report and launches
// the probe.
func (d *Detector) startWave() {
	d.cur = summary{allPassive: true}
	if d.App != nil {
		sent, recv := d.App.Counts()
		d.cur.sent += sent
		d.cur.recv += recv
		d.cur.allPassive = d.App.Passive()
	}
	d.Waves++
	d.PIF.Reset(core.Payload{Tag: TagProbe, Num: int64(d.Waves)})
}

// Step runs the internal actions in text order.
func (d *Detector) Step(env core.Env) bool {
	fired := false

	// A1: start — discard any (corrupted) previous summary and wave.
	if d.Request == core.Wait {
		d.Request = core.In
		d.Terminated = false
		d.havePrev = false
		d.Waves = 0
		d.startWave()
		env.Emit(core.Event{Kind: core.EvStart, Peer: -1, Instance: d.Instance()})
		fired = true
	}

	// A2: a wave completed — decide or wave again.
	if d.Request == core.In && d.PIF.Done() {
		complete := d.cur.replies == d.n-1
		quiet := complete && d.cur.allPassive && d.cur.sent == d.cur.recv
		if quiet && d.havePrev && d.cur == d.prev {
			d.Terminated = true
			d.Request = core.Done
			env.Emit(core.Event{Kind: core.EvDecide, Peer: -1, Instance: d.Instance(),
				Note: fmt.Sprintf("terminated after %d waves", d.Waves)})
		} else {
			d.prev = d.cur
			d.havePrev = quiet
			d.startWave()
		}
		fired = true
	}

	return fired
}

// AppendState appends a canonical encoding of the machine state.
func (d *Detector) AppendState(dst []byte) []byte {
	dst = append(dst, 'T', byte(d.Request))
	flags := byte(0)
	if d.Terminated {
		flags |= 1
	}
	if d.havePrev {
		flags |= 2
	}
	if d.cur.allPassive {
		flags |= 4
	}
	dst = append(dst, flags)
	for _, v := range []int64{int64(d.Waves), d.cur.sent, d.cur.recv, d.prev.sent, d.prev.recv} {
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(v>>shift))
		}
	}
	return dst
}

// Corrupt overwrites every protocol variable with random domain values
// (the underlying application is outside the protocol and untouched).
func (d *Detector) Corrupt(r core.Rand) {
	d.Request = core.ReqState(r.Intn(core.NumReqStates))
	d.Terminated = r.Bool()
	d.havePrev = r.Bool()
	d.Waves = r.Intn(100)
	d.cur = summary{allPassive: r.Bool(), sent: int64(r.Intn(64)), recv: int64(r.Intn(64)), replies: r.Intn(d.n)}
	d.prev = summary{allPassive: r.Bool(), sent: int64(r.Intn(64)), recv: int64(r.Intn(64)), replies: r.Intn(d.n)}
}
