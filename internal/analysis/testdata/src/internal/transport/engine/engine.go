// Package engine is a lockorder fixture mirroring the socket engine's
// ranked mutex fields (mu outermost, mbMu, then injMu).
package engine

import "sync"

type conn struct {
	mu    sync.Mutex
	mbMu  sync.Mutex
	injMu sync.RWMutex
	n     int
}

// Do is the atomic-section entry point: it runs f under mu.
func (c *conn) Do(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// Submit registers a request with the waiter registry, which evaluates
// cond and runs done under mu at the end of atomic sections.
func (c *conn) Submit(cond func() bool, done func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cond() {
		done(nil)
	}
}

func (c *conn) goodOrder() {
	c.mu.Lock()
	c.mbMu.Lock()
	c.injMu.Lock()
	c.injMu.Unlock()
	c.mbMu.Unlock()
	c.mu.Unlock()
}

func (c *conn) badOrder() {
	c.mbMu.Lock()
	c.mu.Lock() // want `acquires mu while holding mbMu`
	c.mu.Unlock()
	c.mbMu.Unlock()
}

func (c *conn) reacquire() {
	c.mu.Lock()
	c.mu.Lock() // want `acquires mu while already holding it`
	c.mu.Unlock()
	c.mu.Unlock()
}

func (c *conn) injBeforeMb() {
	c.injMu.RLock()
	c.mbMu.Lock() // want `acquires mbMu while holding injMu`
	c.mbMu.Unlock()
	c.injMu.RUnlock()
}

// trySettle is the in-memory link's settle: holding its own mu, a node
// tries a peer's, which never waits, and takes the peer's mbMu under it.
func (c *conn) trySettle(peer *conn) {
	c.mu.Lock()
	if c.n > 0 && peer.mu.TryLock() {
		peer.mbMu.Lock()
		peer.n++
		peer.mbMu.Unlock()
		peer.mu.Unlock()
	}
	c.mu.Unlock()
}

// tryUnderMb: a TryLock may take a lower rank than one held.
func (c *conn) tryUnderMb() {
	c.mbMu.Lock()
	if c.mu.TryLock() {
		c.mu.Unlock()
	}
	c.mbMu.Unlock()
}

// blockingSettle waits for the peer's mu where trySettle tries it.
func (c *conn) blockingSettle(peer *conn) {
	c.mu.Lock()
	peer.mu.Lock() // want `acquires mu while already holding it`
	peer.mu.Unlock()
	c.mu.Unlock()
}

// tryLockedIsHeld: what a TryLock took is held in its branch.
func (c *conn) tryLockedIsHeld(peer *conn) {
	if peer.mu.TryLock() {
		c.mu.Lock() // want `acquires mu while already holding it`
		c.mu.Unlock()
		peer.mu.Unlock()
	}
	if !peer.mu.TryLock() {
		c.mu.Lock() // a TryLock that failed took nothing
		c.mu.Unlock()
	}
}

// release is the engine's end of a section: it unlocks mu, then retakes
// it with TryLock to drain what a failed settle left owed. Past the
// early return the TryLock took mu, so mbMu may be taken under it.
func (c *conn) release() {
	for {
		c.mu.Unlock()
		if c.n == 0 || !c.mu.TryLock() {
			return
		}
		c.mbMu.Lock()
		c.n--
		c.mbMu.Unlock()
	}
}

// twoSections: a section ended by release holds mu no more.
func (c *conn) twoSections() {
	c.mu.Lock()
	c.n++
	c.release()
	c.mu.Lock()
	c.n++
	c.release()
}

// retakeThenLock: what the early-returning TryLock took is held, so a
// blocking Lock of it waits on itself.
func (c *conn) retakeThenLock() {
	c.mu.Unlock()
	if !c.mu.TryLock() {
		return
	}
	c.mu.Lock() // want `acquires mu while already holding it`
	c.mu.Unlock()
}

func (c *conn) branchesDoNotLeak(cond bool) {
	if cond {
		c.mbMu.Lock()
		c.mbMu.Unlock()
	}
	c.mu.Lock() // branch acquisitions are not propagated past the branch
	c.mu.Unlock()
}

func (c *conn) goroutineStartsFresh() {
	c.mbMu.Lock()
	go func() {
		c.mu.Lock() // a new goroutine holds nothing
		c.n++
		c.mu.Unlock()
	}()
	c.mbMu.Unlock()
}

func (c *conn) callbackLocks() {
	c.Do(func() {
		c.mbMu.Lock() // want `acquires mbMu inside an atomic-section callback`
		c.n++
		c.mbMu.Unlock()
	})
}

func (c *conn) conditionLocks() {
	c.Submit(func() bool {
		c.mu.Lock() // want `acquires mu inside an atomic-section callback: Submit already runs it under mu`
		defer c.mu.Unlock()
		return c.n > 0
	}, func(error) {})
	c.Submit(func() bool { return c.n > 0 }, func(error) {
		c.mbMu.Lock() // want `acquires mbMu inside an atomic-section callback: Submit already runs it under mu`
		c.mbMu.Unlock()
	})
	// A condition that only reads state, and a completion that only
	// records the outcome, are the idiom.
	c.Submit(func() bool { return c.n > 0 }, func(err error) { c.n = 0 })
}
