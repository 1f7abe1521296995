//go:build unix

package snapstab_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// processCPU is the processor time, user and system, the test process
// has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// idleChild marks a re-executed test binary that measures one subtest
// of TestIdleClusterCostsNothing.
const idleChild = "SNAPSTAB_IDLE_CHILD"

// TestIdleClusterCostsNothing: a PIF cluster that answered one broadcast
// and then has nothing to do burns no processor time. Each node's timer
// parks once nothing is owed, and a UDP socket's reader blocks in the
// kernel without a polling deadline, so a second of idle reads at most
// 2 ms of process CPU at n = 3 and n = 32 on every concurrent substrate.
// While the step tick fired every 2 ms forever it read 51–124 ms (2-core
// amd64, go1.24). getrusage is process-wide, so each subtest measures in
// a child process of the test binary, re-executed with -test.run naming
// the subtest: nothing another test left running is charged to it.
func TestIdleClusterCostsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("one second of idle per cluster")
	}
	const bound = 2 * time.Millisecond
	child := os.Getenv(idleChild) != ""
	for _, sub := range []struct {
		name string
		sub  func() snapstab.Substrate
	}{{"runtime", snapstab.Runtime}, {"udp", snapstab.UDP}, {"tcp", snapstab.TCP}} {
		for _, n := range []int{3, 32} {
			t.Run(fmt.Sprintf("%s/n=%d", sub.name, n), func(t *testing.T) {
				if !child {
					cmd := exec.Command(os.Args[0], "-test.v", "-test.run", fmt.Sprintf("^TestIdleClusterCostsNothing$/^%s$/^n=%d$", sub.name, n))
					cmd.Env = append(os.Environ(), idleChild+"=1")
					out, err := cmd.CombinedOutput()
					_, reading, found := strings.Cut(string(out), "idle: ")
					if err != nil || !found {
						t.Fatalf("the measuring child: %v\n%s", err, out)
					}
					reading, _, _ = strings.Cut(reading, "\n")
					t.Log("idle: " + reading)
					return
				}
				c := snapstab.NewPIFCluster(n, snapstab.WithSubstrate(sub.sub()))
				defer c.Close()
				if _, err := c.Broadcast(0, "idle", 1); err != nil {
					t.Fatal(err)
				}
				time.Sleep(300 * time.Millisecond) // the last echoes leave
				runtime.GC()
				start, cpu := time.Now(), processCPU()
				time.Sleep(time.Second)
				used := processCPU() - cpu
				perSecond := time.Duration(float64(used) / time.Since(start).Seconds())
				t.Logf("idle: %v of CPU per second", perSecond)
				if perSecond > bound {
					t.Errorf("an idle cluster used %v of CPU per second, want at most %v", perSecond, bound)
				}
			})
		}
	}
}
