package runtime

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
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
	var sub core.Substrate = New(stacks)
	sub.(*Engine).Start()
	defer sub.Close()
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

// TestEngineAwaitStopped verifies Await unblocks with ErrStopped when
// the engine is closed underneath it, and that Close is idempotent.
func TestEngineAwaitStopped(t *testing.T) {
	t.Parallel()
	stacks := make([]core.Stack, 2)
	for i := range stacks {
		stacks[i] = core.Stack{pif.New("pif", core.ProcID(i), 2, pif.Callbacks{})}
	}
	e := New(stacks)
	e.Start()
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
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("got %v, want ErrStopped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await never unblocked after Close")
	}
}

// TestTransportStatsCountEvents pins the per-process counters to the
// event stream: one broadcast from a clean start plus one send to an
// instance nobody runs, and after Stop every process's Sends, SendDrops
// and Recvs equal the EvSend, EvSendLost and EvDeliver events an
// observer counted at it.
func TestTransportStatsCountEvents(t *testing.T) {
	t.Parallel()
	const n = 3
	stacks, machines := pifStacks(n)
	var sends, sendLost, delivers [n]atomic.Int64
	e := New(stacks, WithObserver(core.ObserverFunc(func(ev core.Event) {
		switch ev.Kind {
		case core.EvSend:
			sends[ev.Proc].Add(1)
		case core.EvSendLost:
			sendLost[ev.Proc].Add(1)
		case core.EvDeliver:
			delivers[ev.Proc].Add(1)
		}
	})))
	e.Start()
	token := core.Payload{Tag: "count", Num: 3}
	e.Do(0, func(env core.Env) {
		env.Send(1, core.Message{Instance: "nobody-runs-this"}) // lost at the sender, always
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	if !waitFor(t, 20*time.Second, func() bool {
		var d bool
		e.Do(0, func(core.Env) { d = machines[0].Done() && machines[0].BMes.Equal(token) })
		return d
	}) {
		t.Fatal("broadcast did not complete")
	}
	e.Stop()
	var totalSends, totalDrops int64
	for p, s := range e.TransportStats() {
		if s.Sends != sends[p].Load() || s.SendDrops != sendLost[p].Load() || s.Recvs != delivers[p].Load() {
			t.Errorf("process %d: Sends/SendDrops/Recvs = %d/%d/%d, events send/send-lost/deliver = %d/%d/%d",
				p, s.Sends, s.SendDrops, s.Recvs, sends[p].Load(), sendLost[p].Load(), delivers[p].Load())
		}
		if s.Addr != "" || s.Links != nil {
			t.Errorf("process %d reports sockets: %+v", p, s)
		}
		totalSends += s.Sends
		totalDrops += s.SendDrops
	}
	if totalSends == 0 || totalDrops == 0 {
		t.Fatalf("counters inert: %d sends, %d send drops", totalSends, totalDrops)
	}
}
