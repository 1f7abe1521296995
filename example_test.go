package snapstab_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// broadcastOnce corrupts the cluster and completes one broadcast with
// feedback: identical application code for every substrate.
func broadcastOnce(cluster *snapstab.PIFCluster) {
	// Drive the system into an arbitrary configuration: every protocol
	// variable randomized (and, on the simulator, every channel preloaded
	// with garbage).
	cluster.CorruptEverything(7)

	// One call: process 0 broadcasts, everyone acknowledges.
	feedback, err := cluster.Broadcast(0, "how-old-are-you", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("process 0 broadcast \"how-old-are-you\" and received:")
	for _, fb := range feedback {
		fmt.Printf("  process %d answered %s(%d)\n", fb.From, fb.Value.Tag, fb.Value.Num)
	}
}

// A snap-stabilizing broadcast with feedback, on two substrates. Four
// processes; everything, process memories and channel contents, is
// corrupted first. A single call then broadcasts a message and collects
// every acknowledgment, correctly, with no stabilization period: the
// first request already enjoys the full guarantee. The same code then
// runs on the concurrent substrate by changing one construction option.
func ExampleNewPIFCluster() {
	fmt.Println("--- deterministic simulator (seeded, replayable) ---")
	sim := snapstab.NewPIFCluster(4,
		snapstab.WithSeed(2024),
		snapstab.WithLossRate(0.2), // links drop a fifth of all messages
	)
	broadcastOnce(sim)
	stats := sim.Stats()
	sim.Close()
	fmt.Printf("(%d scheduler steps, %d messages sent, %d lost — and still exact)\n\n",
		stats.Steps, stats.Sends, stats.LinkLosses+stats.SendLosses)

	fmt.Println("--- concurrent runtime (one goroutine per process) ---")
	rt := snapstab.NewPIFCluster(4,
		snapstab.WithSubstrate(snapstab.Runtime()),
		snapstab.WithLossRate(0.2),
	)
	broadcastOnce(rt)
	rt.Close()
	fmt.Println("(same cluster code, real concurrency — still exact)")
	// Output:
	// --- deterministic simulator (seeded, replayable) ---
	// process 0 broadcast "how-old-are-you" and received:
	//   process 1 answered ack(1001)
	//   process 2 answered ack(1002)
	//   process 3 answered ack(1003)
	// (365 scheduler steps, 293 messages sent, 173 lost — and still exact)
	//
	// --- concurrent runtime (one goroutine per process) ---
	// process 0 broadcast "how-old-are-you" and received:
	//   process 1 answered ack(1001)
	//   process 2 answered ack(1002)
	//   process 3 answered ack(1003)
	// (same cluster code, real concurrency — still exact)
}

// Leader discovery from a corrupted network. Protocol IDL (Algorithm 2)
// lets any process learn the identifier of every peer and the minimum
// identifier of the system, the leader the mutual exclusion protocol
// uses. Starting from corrupted tables and garbage-filled channels, one
// computation rebuilds the truth.
func ExampleNewIDCluster() {
	ids := []int64{907, 113, 542, 389}
	cluster := snapstab.NewIDCluster(ids,
		snapstab.WithSeed(5),
		snapstab.WithLossRate(0.1),
	)
	defer cluster.Close()
	cluster.CorruptEverything(44)
	fmt.Println("4 processes with identifiers", ids, "- tables corrupted, channels garbaged")

	for p := range ids {
		min, table, err := cluster.Learn(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("process %d learned: leader(minID)=%d, table=%v\n", p, min, table)
		if min != 113 {
			log.Fatalf("process %d learned the wrong leader: %d", p, min)
		}
	}
	fmt.Println("every process agrees: the leader is 113")
	// Output:
	// 4 processes with identifiers [907 113 542 389] - tables corrupted, channels garbaged
	// process 0 learned: leader(minID)=113, table=[907 113 542 389]
	// process 1 learned: leader(minID)=113, table=[907 113 542 389]
	// process 2 learned: leader(minID)=113, table=[907 113 542 389]
	// process 3 learned: leader(minID)=113, table=[907 113 542 389]
	// every process agrees: the leader is 113
}

// A shared ledger protected by Protocol ME. Five processes contend for a
// critical section guarding a ledger. The initial configuration is
// corrupted, possibly with processes that believe they are already
// inside the critical section (the paper's footnote 1). Every request is
// nevertheless served, exclusively, and the ledger stays consistent.
func ExampleNewMutexCluster() {
	// Identifiers need not be contiguous — the smallest one is the leader.
	ids := []int64{31, 8, 59, 26, 53}
	cluster := snapstab.NewMutexCluster(ids,
		snapstab.WithSeed(99),
		snapstab.WithCSLength(3),
	)
	defer cluster.Close()
	cluster.CorruptEverything(123)
	fmt.Println("5 processes, corrupted start (zombie occupants possible), leader = id 8")

	// A toy bank ledger: each critical section moves money atomically.
	balance := map[string]int{"alice": 100, "bob": 0}
	transfer := func(amount int) func() {
		return func() {
			balance["alice"] -= amount
			balance["bob"] += amount
		}
	}

	// Every process requests once, concurrently.
	procs := []int{0, 1, 2, 3, 4}
	bodies := []func(){
		transfer(10), transfer(20), transfer(5), transfer(15), transfer(50),
	}
	if err := cluster.AcquireAll(procs, bodies); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("after 5 exclusive transfers: alice=%d bob=%d (conserved: %v)\n",
		balance["alice"], balance["bob"], balance["alice"]+balance["bob"] == 100)
	if v := cluster.Violations(); len(v) > 0 {
		log.Fatalf("mutual exclusion violated: %v", v)
	}
	fmt.Printf("served entries: %d, mutual exclusion violations: 0\n", cluster.Entries())

	// Sequential re-acquisition keeps working forever (each request is a
	// fresh computation with the full guarantee).
	for round := 0; round < 3; round++ {
		p := round % len(ids)
		if err := cluster.Acquire(p, transfer(1)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 3 more transfers: alice=%d bob=%d\n", balance["alice"], balance["bob"])
	// Output:
	// 5 processes, corrupted start (zombie occupants possible), leader = id 8
	// after 5 exclusive transfers: alice=0 bob=100 (conserved: true)
	// served entries: 5, mutual exclusion violations: 0
	// after 3 more transfers: alice=-3 bob=103
}

// Wiping a distributed cache consistently. Four processes each hold a
// local cache; a single reset request, issued into a fully corrupted
// system, drives every process through its reinitialization handler
// under a common epoch, and returns only once every process
// acknowledged.
func ExampleNewResetCluster() {
	const n = 4

	// Each process's "cache": some state that must be wiped consistently.
	caches := make([]map[string]int, n)
	for i := range caches {
		caches[i] = map[string]int{"stale-entry": i * 100}
	}
	epochs := make([]int64, n)

	cluster := snapstab.NewResetCluster(n, func(p int, epoch int64) {
		caches[p] = map[string]int{} // wipe
		epochs[p] = epoch
	}, snapstab.WithSeed(17), snapstab.WithLossRate(0.15))
	defer cluster.Close()

	cluster.CorruptEverything(66)
	fmt.Println("4 processes with dirty caches; protocol state and channels corrupted")

	epoch, err := cluster.Reset(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 2 requested a reset; decision reached under epoch %d\n", epoch)

	for p, cache := range caches {
		keys := make([]string, 0, len(cache))
		for k := range cache {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  process %d: cache=%v epoch=%d\n", p, keys, epochs[p])
		if len(cache) != 0 {
			log.Fatalf("process %d still holds stale entries", p)
		}
	}
	fmt.Println("every cache wiped under the same epoch — certified by the feedback phase")
	// Output:
	// 4 processes with dirty caches; protocol state and channels corrupted
	// process 2 requested a reset; decision reached under epoch 2590
	//   process 0: cache=[] epoch=2590
	//   process 1: cache=[] epoch=2590
	//   process 2: cache=[] epoch=2590
	//   process 3: cache=[] epoch=2590
	// every cache wiped under the same epoch — certified by the feedback phase
}

// Order is the application's own message type: any JSON-marshalable
// struct works, no protocol awareness required.
type Order struct {
	SKU        string `json:"sku"`
	Qty        int    `json:"qty"`
	Attachment []byte `json:"attachment,omitempty"`
}

// Broadcast your own struct through a snap-stabilizing cluster. The
// typed API carries the propagated value as your type, marshaled through
// a codec into an opaque body the machines never inspect; the guarantee
// covers it byte for byte. An Order with a 4KiB attachment goes out
// three times: on the simulator from a corrupted configuration, on the
// concurrent substrate, and with a typed receiver that transforms the
// value instead of echoing it.
func ExampleNewTypedPIFCluster() {
	attachment := make([]byte, 4096)
	for i := range attachment {
		attachment[i] = byte(i * 17)
	}
	order := Order{SKU: "widget-9", Qty: 3, Attachment: attachment}

	// 1. Deterministic simulator, corrupted start: the first request
	// already enjoys the full guarantee.
	sim := snapstab.NewTypedPIFCluster(4, snapstab.JSON[Order]())
	defer sim.Close()
	sim.CorruptEverything(7)
	fb, err := sim.Broadcast(0, order)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim: %d processes echoed the order back\n", len(fb))
	for _, f := range fb {
		if f.Err != nil {
			log.Fatalf("process %d echoed an undecodable body: %v", f.From, f.Err)
		}
		if f.Value.SKU != order.SKU || !bytes.Equal(f.Value.Attachment, attachment) {
			log.Fatalf("process %d echo differs from the broadcast", f.From)
		}
	}
	fmt.Println("sim: every echo byte-identical, 4KiB attachment included")

	// 2. Same application code on the concurrent goroutine substrate:
	// one construction option changes, the guarantee does not.
	rt := snapstab.NewTypedPIFCluster(4, snapstab.JSON[Order](),
		snapstab.WithSubstrate(snapstab.Runtime()))
	defer rt.Close()
	rt.CorruptEverything(7)
	if _, err := rt.Broadcast(0, order); err != nil {
		log.Fatal(err)
	}
	fmt.Println("runtime: same cluster code, real goroutine concurrency")

	// 3. A typed receiver: application logic runs at each process on the
	// accepted broadcast and its return value is the feedback.
	confirm := snapstab.NewTypedPIFCluster(4, snapstab.JSON[Order](),
		snapstab.WithReceiverT(func(proc, from int, o Order) Order {
			o.Qty *= 10 // each warehouse confirms ten times the quantity
			o.Attachment = nil
			return o
		}))
	defer confirm.Close()
	cfb, err := confirm.Broadcast(0, order)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range cfb {
		if f.Err != nil {
			log.Fatal(f.Err)
		}
		fmt.Printf("receiver: process %d confirmed qty=%d\n", f.From, f.Value.Qty)
	}
	// Output:
	// sim: 3 processes echoed the order back
	// sim: every echo byte-identical, 4KiB attachment included
	// runtime: same cluster code, real goroutine concurrency
	// receiver: process 1 confirmed qty=30
	// receiver: process 2 confirmed qty=30
	// receiver: process 3 confirmed qty=30
}

// Snap-stabilizing PIF over real loopback UDP sockets: wire-encoded
// datagrams, natural loss, and bounded mailboxes restoring the known
// capacity bound. Three nodes' protocol state is corrupted, and a
// broadcast with feedback completes anyway. The socket wiring is one
// construction option. Socket addresses, the decision's wall time and
// the send counters vary from run to run, so the example does not print
// them; TransportStats reports them per node.
func ExampleUDP() {
	cluster := snapstab.NewPIFCluster(3,
		snapstab.WithSubstrate(snapstab.UDP()),
		snapstab.WithSeed(2008), // the paper's year, why not
	)
	defer cluster.Close()

	cluster.CorruptEverything(2008) // arbitrary initial protocol state
	fmt.Println("all protocol states corrupted")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fmt.Println("node 0 broadcasting hello(7) over real sockets...")
	req := cluster.BroadcastAsync(0, "hello", 7)
	if err := req.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decision: %d nodes received the broadcast and acknowledged\n", len(req.Feedbacks()))
	// Output:
	// all protocol states corrupted
	// node 0 broadcasting hello(7) over real sockets...
	// decision: 2 nodes received the broadcast and acknowledged
}

// chaosPlan is the adversary: flaky links everywhere, plus a partition
// that cuts process 0 off and heals, plus process 2 crashing and
// restarting. Tick units: scheduler steps on the simulator, milliseconds
// on the concurrent substrates.
func chaosPlan(until int64) snapstab.FaultPlan {
	return snapstab.FaultPlan{
		Seed: 99,
		Default: snapstab.LinkFaults{
			DropRate:    0.10,
			DupRate:     0.10,
			ReorderRate: 0.10,
			DelayRate:   0.05,
			DelayTicks:  until / 100,
			CorruptRate: 0.05,
		},
		Partitions: []snapstab.PartitionWindow{
			{From: 0, Until: until, GroupA: []int{0}},
		},
		Crashes: []snapstab.CrashWindow{
			{Proc: 2, From: 0, Until: until / 2},
		},
	}
}

// chaosBroadcast corrupts the cluster on top of its fault plan, completes
// one broadcast, and prints what the plan did to it when the substrate
// replays the plan exactly.
func chaosBroadcast(name string, cluster *snapstab.PIFCluster, exact bool) {
	defer cluster.Close()
	cluster.CorruptEverything(7) // arbitrary initial configuration on top

	feedback, err := cluster.Broadcast(0, "still-there", 42)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("--- %s ---\n", name)
	fmt.Printf("broadcast decided with %d acknowledgments despite:\n", len(feedback))
	if !exact {
		return // the concurrent runtime's counts vary from run to run
	}
	st := cluster.FaultStats()
	fmt.Printf("  %d drops, %d duplicates, %d reorders, %d delays, %d garbled in flight and discarded\n",
		st.Drops, st.Duplicates, st.Reorders, st.Delays, st.Corrupts)
	fmt.Printf("  %d partition drops, %d arrivals consumed by the crashed process\n",
		st.PartitionDrops, st.CrashDrops)
}

// One seeded fault plan batters the same cluster on two substrates, and
// every request still satisfies its specification. The plan composes
// per-link faults (drop, duplicate, reorder, delay, and in-flight
// corruption, which the receiver's integrity check turns into one more
// loss) with a split-brain partition that heals and a crash-restart
// window. The simulator replays it exactly from the seed; the concurrent
// runtime applies the same seeded decision streams under real
// concurrency.
func ExampleWithFaults() {
	// Simulator ticks are scheduler steps: the partition spans the first
	// 4000 steps and replays identically on every run.
	chaosBroadcast("deterministic simulator", snapstab.NewPIFCluster(4,
		snapstab.WithSeed(2024),
		snapstab.WithFaults(chaosPlan(4_000))), true)

	// Runtime ticks are milliseconds: the partition spans the first
	// 200ms of real time, the crash window the first 100ms.
	chaosBroadcast("concurrent runtime", snapstab.NewPIFCluster(4,
		snapstab.WithSubstrate(snapstab.Runtime()),
		snapstab.WithSeed(2024),
		snapstab.WithFaults(chaosPlan(200))), false)
	// Output:
	// --- deterministic simulator ---
	// broadcast decided with 3 acknowledgments despite:
	//   23 drops, 14 duplicates, 14 reorders, 9 delays, 8 garbled in flight and discarded
	//   1087 partition drops, 408 arrivals consumed by the crashed process
	// --- concurrent runtime ---
	// broadcast decided with 3 acknowledgments despite:
}
