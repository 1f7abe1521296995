package core

import (
	"fmt"
	"slices"
	"testing"
)

// TestWaitersFIFO: requests at one process are served in order. Only the
// head is evaluated; the Complete that completes it evaluates the next,
// and a request whose condition already holds still waits its turn.
// Close completes what is left, in order, and every later request at
// once.
func TestWaitersFIFO(t *testing.T) {
	var ws Waiters
	var log []string
	ready := false
	request := func(name string, cond func() bool) {
		ws.Submit(nil, func(Env) bool {
			log = append(log, "eval "+name)
			return cond()
		}, func(_ Env, err error) {
			log = append(log, fmt.Sprintf("done %s %v", name, err))
		})
	}
	request("a", func() bool { return ready })
	request("b", func() bool { return true })
	request("c", func() bool { return false })
	ws.Complete(nil)
	ready = true
	ws.Complete(nil)
	ws.Close(nil)
	request("d", func() bool { return true })
	want := []string{
		"eval a", // at Submit: the head
		"eval a", // the first Complete: a does not hold, b and c are not looked at
		"eval a", "done a <nil>", "eval b", "done b <nil>", "eval c",
		"done c core: substrate closed",
		"done d core: substrate closed",
	}
	if !slices.Equal(log, want) {
		t.Fatalf("got\n%q\nwant\n%q", log, want)
	}
	if ws.Len() != 0 {
		t.Fatalf("%d requests left after Close", ws.Len())
	}
}
