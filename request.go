package snapstab

import "context"

// Request is the handle of one asynchronous protocol request. It is
// created by the *Async methods, completes exactly once, and is safe to
// share across goroutines. Issuing it starts no goroutine: the request is
// a condition registered at its process, and the atomic section in which
// the condition holds completes it. Requests at one process are served
// in the order they were issued. On Runtime, UDP and TCP a request runs
// whether or not anyone waits on it. On Sim the scheduler runs while a
// pending request has been waited on (Wait, Done or Err), and then until
// no request is pending, so requests issued back to back before the
// first wait replay exactly from the seed. Close on the cluster aborts
// every pending request.
//
// The typed request wrappers (BroadcastRequest, LearnRequest, ...) embed
// Request and add result accessors that are valid once the request has
// completed successfully.
type Request struct {
	done     chan struct{}
	err      error  // terminal error; written exactly once before done closes
	fail     error  // protocol-level failure recorded by the completion condition
	drive    func() // starts the Sim scheduler for a pending request; nil elsewhere
	accepted bool   // the machine accepted it; read and written in its process's atomic context
}

// waited tells a Sim cluster that r is waited on, so its scheduler runs.
func (r *Request) waited() {
	if r.drive != nil && !r.completed() {
		r.drive()
	}
}

// Done returns a channel that is closed when the request has completed
// (successfully or not). It is the select-friendly form of Wait.
func (r *Request) Done() <-chan struct{} {
	r.waited()
	return r.done
}

// Wait blocks until the request completes, returning its terminal error,
// or until ctx is done, returning ctx.Err(). A context cancellation
// abandons only this Wait: the request itself keeps running and can be
// waited on again.
func (r *Request) Wait(ctx context.Context) error {
	r.waited()
	select {
	case <-r.done:
		return r.err
	case <-ctx.Done():
		// Completion wins over a racing cancellation.
		select {
		case <-r.done:
			return r.err
		default:
			return ctx.Err()
		}
	}
}

// completed reports whether the request has reached its terminal state.
// Result accessors gate on it: their fields are written by the
// completion condition in the substrate's atomic context, so reading
// them mid-flight would be an unsynchronized race.
func (r *Request) completed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Err returns the request's terminal error once it has completed, and
// nil while it is still in flight (and after a successful completion).
func (r *Request) Err() error {
	r.waited()
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}
