// Package channel implements the communication channels of the paper's
// model: FIFO, unreliable (fair-lossy) links between pairs of processes.
//
// Two capacity regimes matter, both realized by the one Queue type:
//
//   - Bounded: the channel holds at most c messages; a message sent into a
//     full channel is lost (paper, §4: "if a process sends a message in a
//     channel that is full, then the message is lost"). This is the regime
//     in which snap-stabilization is possible (Theorems 2-4).
//   - Unbounded: the channel can hold arbitrarily many messages. This is
//     the regime of the impossibility result (Theorem 1): an arbitrary
//     initial configuration may contain an arbitrarily long sequence of
//     adversarial messages.
//
// Channels are plain data structures; loss beyond the full-channel drop is
// decided by the scheduler/adversary (which calls Drop), keeping all
// nondeterminism in one place so executions replay from a seed.
package channel

import "fmt"

// Unlimited is the Cap value reported by unbounded channels.
const Unlimited = -1

// Queue is a FIFO channel over a ring buffer. Built by NewBounded it
// holds at most c messages and silently loses a message sent while full;
// built by NewUnbounded the ring grows instead, so a send is never lost.
type Queue[T any] struct {
	buf        []T
	head       int
	n          int
	lost       int
	unbounded  bool
	transition func(nonEmpty bool)
}

// NewBounded returns an empty bounded channel of capacity c. It panics if
// c < 1: the paper's positive results assume at least single-message
// capacity.
func NewBounded[T any](c int) *Queue[T] {
	if c < 1 {
		panic(fmt.Sprintf("channel: invalid capacity %d", c))
	}
	return &Queue[T]{buf: make([]T, c)}
}

// NewUnbounded returns an empty channel with no capacity limit, the
// setting of the Theorem 1 impossibility result.
func NewUnbounded[T any]() *Queue[T] {
	return &Queue[T]{buf: make([]T, 1), unbounded: true}
}

// resize moves the contents, head first, into a fresh ring of the given
// size (at least Len).
func (q *Queue[T]) resize(size int) {
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}

// Send enqueues a copy of *m. It reports false when the message was lost
// because the channel was full (only possible for bounded channels); a
// refused send reads nothing of *m, so a full link costs no copy.
func (q *Queue[T]) Send(m *T) bool {
	if q.n == len(q.buf) {
		if !q.unbounded {
			q.lost++
			return false
		}
		q.resize(2 * len(q.buf))
	}
	q.buf[(q.head+q.n)%len(q.buf)] = *m
	q.n++
	if q.n == 1 && q.transition != nil {
		q.transition(true)
	}
	return true
}

// Pop dequeues the head message and returns the slot it left, or nil when
// the channel is empty. The message is not copied out: the slot holds it
// until the next Send or Preload on this channel, so a caller reads it
// before sending into the same channel again. The slot is not cleared, so
// it keeps what the message references alive until it is overwritten.
func (q *Queue[T]) Pop() *T {
	if q.n == 0 {
		return nil
	}
	m := &q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if q.n == 0 && q.transition != nil {
		q.transition(false)
	}
	return m
}

// Peek returns the head message without dequeuing it.
func (q *Queue[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// Drop removes the head message (models link-level loss) and returns the
// slot it left, as Pop does, or nil when the channel was empty.
func (q *Queue[T]) Drop() *T {
	m := q.Pop()
	if m != nil {
		q.lost++
	}
	return m
}

// Len returns the number of messages currently in transit.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the channel capacity; Unlimited for unbounded channels.
func (q *Queue[T]) Cap() int {
	if q.unbounded {
		return Unlimited
	}
	return len(q.buf)
}

// Lost returns the total number of messages lost so far, from both
// full-channel sends and explicit drops.
func (q *Queue[T]) Lost() int { return q.lost }

// Contents returns the in-transit messages, head first. The returned
// slice is a copy.
func (q *Queue[T]) Contents() []T {
	out := make([]T, 0, q.n)
	for i := 0; i < q.n; i++ {
		out = append(out, q.buf[(q.head+i)%len(q.buf)])
	}
	return out
}

// Preload replaces the channel contents with msgs (head first). It is
// used to construct arbitrary initial configurations. On a bounded
// channel it returns an error if msgs exceeds the capacity: such a
// configuration does not exist in the bounded model (this is exactly the
// step of the Theorem 1 proof that fails under bounded capacity). An
// unbounded channel accepts any preload; this is the capability
// Theorem 1's adversary exploits.
func (q *Queue[T]) Preload(msgs []T) error {
	was := q.n > 0
	if len(msgs) > len(q.buf) {
		if !q.unbounded {
			return fmt.Errorf("channel: cannot preload %d messages into capacity-%d channel", len(msgs), len(q.buf))
		}
		q.buf = make([]T, len(msgs))
	} else {
		clear(q.buf)
	}
	q.head = 0
	q.n = copy(q.buf, msgs)
	if now := q.n > 0; now != was && q.transition != nil {
		q.transition(now)
	}
	return nil
}

// SetTransition registers f to be invoked whenever the channel
// transitions between empty and non-empty: f(true) when a message enters
// an empty channel, f(false) when the last message leaves. At most one
// hook is supported; registering replaces the previous one. The scheduler
// uses the hook to maintain its O(1) non-empty-link index (DESIGN.md §4),
// so the hook fires from every mutating method, including Preload.
func (q *Queue[T]) SetTransition(f func(nonEmpty bool)) { q.transition = f }
