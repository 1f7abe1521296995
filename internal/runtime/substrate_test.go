package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// TestEngineAwait completes a corrupted broadcast through the substrate
// interface alone.
func TestEngineAwait(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks := make([]core.Stack, n)
	machines := make([]*pif.PIF, n)
	for i := 0; i < n; i++ {
		machines[i] = pif.New("pif", core.ProcID(i), n, pif.Callbacks{})
		stacks[i] = core.Stack{machines[i]}
	}
	var sub core.Substrate = start(t, stacks)
	if sub.N() != n {
		t.Fatalf("N = %d, want %d", sub.N(), n)
	}
	token := core.Payload{Tag: "t", Num: 9}
	requested := false
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := sub.Await(ctx, 0, func(env core.Env) bool {
		if !requested {
			requested = machines[0].Invoke(env, token)
			return false
		}
		return machines[0].Done() && machines[0].BMes.Equal(token)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineAwaitStopped verifies Await unblocks with core.ErrClosed when
// the engine is closed underneath it, and that Close is idempotent.
func TestEngineAwaitStopped(t *testing.T) {
	t.Parallel()
	stacks := make([]core.Stack, 2)
	for i := range stacks {
		stacks[i] = core.Stack{pif.New("pif", core.ProcID(i), 2, pif.Callbacks{})}
	}
	e := start(t, stacks)
	done := make(chan error, 1)
	go func() {
		done <- e.Await(context.Background(), 0, func(core.Env) bool { return false })
	}()
	time.Sleep(2 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrClosed) {
			t.Fatalf("got %v, want core.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await never unblocked after Close")
	}
}

// TestTransportStatsCountEvents pins the per-process counters to the
// event stream: one broadcast from a clean start plus one send into a
// full window, and once the cluster is quiet every process's Sends,
// SendDrops and Recvs equal the EvSend, EvSendLost and EvDeliver events
// an observer counted at it, and its Links[] add up to them.
func TestTransportStatsCountEvents(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks, machines := pifStacks(n)
	var sends, sendLost, delivers [n]atomic.Int64
	e := start(t, stacks, engine.WithObserver(core.ObserverFunc(func(ev core.Event) {
		switch ev.Kind {
		case core.EvSend:
			sends[ev.Proc].Add(1)
		case core.EvSendLost:
			sendLost[ev.Proc].Add(1)
		case core.EvDeliver:
			delivers[ev.Proc].Add(1)
		}
	})))
	token := core.Payload{Tag: "count", Num: 3}
	e.Do(0, func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
		machines[0].Step(env)                                 // the first flag takes the one slot toward 1
		env.Send(1, core.Message{Instance: "pif", Kind: "x"}) // lost at the sender, always
	})
	counted := func() bool {
		for p, s := range e.TransportStats() {
			var sent, received int64
			for _, l := range s.Links {
				sent += l.Sent
				received += l.Received
			}
			if s.Sends != sends[p].Load() || s.SendDrops != sendLost[p].Load() || s.Recvs != delivers[p].Load() ||
				sent != s.Sends || received != s.Recvs {
				return false
			}
		}
		return true
	}
	if !waitFor(t, 20*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d && counted()
	}) {
		t.Fatalf("broadcast incomplete or counters apart from the events: %+v", e.TransportStats())
	}
	s := e.TransportStats()[0]
	if s.Sends == 0 || s.SendDrops == 0 {
		t.Fatalf("counters inert: %d sends, %d send drops", s.Sends, s.SendDrops)
	}
}
