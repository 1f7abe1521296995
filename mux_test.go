package snapstab_test

import (
	"testing"

	snapstab "github.com/snapstab/snapstab"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// muxRoundTrip attaches two independent PIF clusters to one mux,
// completes a corrupted broadcast on each, and checks the per-cluster
// counters stayed separate while the batching counters registered the
// shared socket traffic.
func muxRoundTrip(t *testing.T, mux *snapstab.Mux) {
	t.Helper()
	a := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(mux.Substrate()), snapstab.WithSeed(11))
	defer a.Close()
	b := snapstab.NewPIFCluster(3, snapstab.WithSubstrate(mux.Substrate()), snapstab.WithSeed(12))
	defer b.Close()
	a.CorruptEverything(31)
	b.CorruptEverything(32)

	ra := a.BroadcastAsync(0, "mux-a", 1)
	rb := b.BroadcastAsync(0, "mux-b", 2)
	if err := ra.Wait(testCtx(t)); err != nil {
		t.Fatalf("cluster a: %v", err)
	}
	if err := rb.Wait(testCtx(t)); err != nil {
		t.Fatalf("cluster b: %v", err)
	}
	if len(ra.Feedbacks()) != 2 || len(rb.Feedbacks()) != 2 {
		t.Fatalf("feedbacks: a=%d b=%d, want 2 each", len(ra.Feedbacks()), len(rb.Feedbacks()))
	}

	sa, sb := a.TransportStats(), b.TransportStats()
	if len(sa) != 3 || len(sb) != 3 {
		t.Fatalf("stat rows: a=%d b=%d, want 3 each", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Sends == 0 || sb[i].Sends == 0 {
			t.Errorf("node %d: per-cluster Sends a=%d b=%d, want both > 0", i, sa[i].Sends, sb[i].Sends)
		}
		if sa[i].SendDatagrams == 0 || sa[i].SendSyscalls == 0 {
			t.Errorf("node %d: batching counters absent: datagrams=%d syscalls=%d",
				i, sa[i].SendDatagrams, sa[i].SendSyscalls)
		}
	}

	// Closing one cluster detaches its group; the sibling keeps working
	// on the still-open mux.
	if err := a.Close(); err != nil {
		t.Fatalf("close a: %v", err)
	}
	if _, err := b.Broadcast(1, "mux-b-after", 3); err != nil {
		t.Fatalf("cluster b after sibling close: %v", err)
	}
	checkWindows(t, a.TransportStats(), engine.DefaultCapacity)
	checkWindows(t, b.TransportStats(), engine.DefaultCapacity)
}

// TestUDPMuxFacade hosts two clusters as wire groups on one set of
// UDP sockets through the public façade.
func TestUDPMuxFacade(t *testing.T) {
	t.Parallel()
	mux, err := snapstab.UDPMux(3, snapstab.WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	if mux.N() != 3 || len(mux.Addrs()) != 3 {
		t.Fatalf("mux shape: N=%d addrs=%d", mux.N(), len(mux.Addrs()))
	}
	muxRoundTrip(t, mux)
}

// TestTCPMuxFacade hosts two clusters as wire groups on one TCP
// connection mesh through the public façade.
func TestTCPMuxFacade(t *testing.T) {
	t.Parallel()
	mux, err := snapstab.TCPMux(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	muxRoundTrip(t, mux)
}

// TestMuxRejectsWrongClusterSize: a cluster whose process count differs
// from the mux's must fail at construction (the façade panics on
// substrate build errors).
func TestMuxRejectsWrongClusterSize(t *testing.T) {
	t.Parallel()
	mux, err := snapstab.UDPMux(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("4-process cluster on a 3-process mux did not panic")
		}
	}()
	snapstab.NewPIFCluster(4, snapstab.WithSubstrate(mux.Substrate()))
}
