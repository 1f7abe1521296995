package main

import (
	"errors"
	"fmt"
	"time"

	snapstab "github.com/snapstab/snapstab"
)

// errTimeout marks a request that had not decided within the request
// timeout: a missing answer, counted as failed like a wrong one.
var errTimeout = errors.New("request not decided within the timeout")

// pending is one submitted request as the load generator sees it.
type pending struct {
	// proc is the process the request was issued at.
	proc int
	// done closes when the request reaches its terminal state.
	done <-chan struct{}
	// result is the request's terminal error or, if it decided, the
	// verdict of the answer check. Called once, after done closed.
	result func() error
}

// feedback is one acknowledgment, in the shape shared by the legacy and
// the typed façade.
type feedback[T comparable] struct {
	from  int
	value T
	err   error
}

func legacyFeedbacks(fbs []snapstab.Feedback) []feedback[snapstab.Payload] {
	out := make([]feedback[snapstab.Payload], len(fbs))
	for i, f := range fbs {
		out[i] = feedback[snapstab.Payload]{from: f.From, value: f.Value}
	}
	return out
}

func typedFeedbacks[T comparable](fbs []snapstab.TypedFeedback[T]) []feedback[T] {
	out := make([]feedback[T], len(fbs))
	for i, f := range fbs {
		out[i] = feedback[T]{from: f.From, value: f.Value, err: f.Err}
	}
	return out
}

// checkFeedbacks verifies a decided broadcast at initiator among n
// processes: exactly one feedback from every other process, each equal
// to want(q).
func checkFeedbacks[T comparable](n, initiator int, got []feedback[T], want func(q int) T) error {
	if len(got) != n-1 {
		return fmt.Errorf("got %d feedbacks, want %d", len(got), n-1)
	}
	seen := make([]bool, n)
	for _, f := range got {
		if f.from < 0 || f.from >= n || f.from == initiator || seen[f.from] {
			return fmt.Errorf("feedback from unexpected process %d", f.from)
		}
		seen[f.from] = true
		if f.err != nil {
			return fmt.Errorf("feedback from %d: %w", f.from, f.err)
		}
		if f.value != want(f.from) {
			return fmt.Errorf("feedback from %d is %v, want %v", f.from, f.value, want(f.from))
		}
	}
	return nil
}

// checkAcquire verifies a served critical-section request: its body ran
// exactly once and the cluster's exclusion checker saw nothing.
func checkAcquire(bodyRuns int, violations []string) error {
	if bodyRuns != 1 {
		return fmt.Errorf("critical-section body ran %d times, want 1", bodyRuns)
	}
	if len(violations) > 0 {
		return fmt.Errorf("mutual exclusion violated: %s", violations[0])
	}
	return nil
}

// tally counts requests against the number attempted. A failed request
// contributes no latency sample and still counts in the denominator.
type tally struct {
	attempted, failed int
	firstErrs         []error
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	t.firstErrs = append(t.firstErrs, err)
	t.firstErrs = t.firstErrs[:min(len(t.firstErrs), 5)]
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.firstErrs = append(t.firstErrs, o.firstErrs...)
	t.firstErrs = t.firstErrs[:min(len(t.firstErrs), 5)]
}

func (t tally) failRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// sample is one request's timeline on the generator's clock.
type sample struct {
	proc                 int
	issue, issued, ended time.Time
	err                  error
}

// awaitAll waits for every pending request of one closed-loop round and
// stamps each with the moment the generator saw it end. Requests still
// undecided after timeout fail with errTimeout. A nil done channel never
// closes, so unused slots of ps cost nothing.
func awaitAll(ps []pending, out []sample, timeout time.Duration) {
	var ch [maxWidth]<-chan struct{}
	for k, p := range ps {
		ch[k] = p.done
	}
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for left := len(ps); left > 0; left-- {
		k := 0
		select {
		case <-ch[0]:
		case <-ch[1]:
			k = 1
		case <-ch[2]:
			k = 2
		case <-expired.C:
			now := time.Now()
			for j := range ps {
				if ch[j] != nil {
					out[j].ended, out[j].err = now, errTimeout
				}
			}
			return
		}
		out[k].ended = time.Now()
		out[k].err = ps[k].result()
		ch[k] = nil
	}
}
