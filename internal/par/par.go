// Package par holds the concurrency primitives the runtime drivers
// and the slot simulator share: a bounded fan-out over an indexed work
// list (ForEach) and a persistent worker pool (Pool) for callers that
// dispatch many batches and should not pay a goroutine spawn per
// phase.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) on at most workers goroutines (0 =
// GOMAXPROCS); with one worker (or one item) it degrades to a plain
// loop. It returns when every call has completed. fn must be safe for
// concurrent invocation across distinct indexes.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Pool is a persistent worker pool over indexed batches: NewPool
// starts workers-1 long-lived goroutines once, and each Run dispatches
// fn(0..n-1) across them plus the calling goroutine — no goroutine
// spawn and no allocation per batch, unlike ForEach. A Pool sized 1
// (or nil) runs every batch inline.
//
// Run must not be called concurrently with itself on the same Pool:
// the pool is a phase engine for a single dispatching goroutine, not a
// shared executor. Call Close when done with the pool to release its
// goroutines; Run after Close is invalid.
type Pool struct {
	workers int
	closed  bool
	work    chan struct{} // one token wakes one worker for the current batch

	// Current batch; written by Run before the wake tokens are sent and
	// read by workers after receiving one (the channel send provides the
	// happens-before edge).
	fn   func(int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// NewPool builds a pool of the given width (0 = GOMAXPROCS) and starts
// its workers. A width of 1 starts no goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.work = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			// The channel is passed by value: Close may nil the field
			// (for idempotency) while a freshly spawned worker starts up.
			go p.worker(p.work)
		}
	}
	return p
}

func (p *Pool) worker(work <-chan struct{}) {
	for range work {
		p.drainBatch()
		p.wg.Done()
	}
}

// drainBatch claims and runs indexes of the current batch until none
// remain.
func (p *Pool) drainBatch() {
	n, fn := p.n, p.fn
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			return
		}
		fn(i)
	}
}

// Run executes fn(0..n-1) across the pool and the calling goroutine,
// returning when every call has completed. fn must be safe for
// concurrent invocation across distinct indexes. Nil pools, width-1
// pools and single-item batches run inline.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	p.fn, p.n = fn, n
	p.next.Store(0)
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.work <- struct{}{}
	}
	p.drainBatch() // the dispatcher participates instead of idling
	p.wg.Wait()
	p.fn = nil
}

// RunChunked executes fn over [0, n) split into contiguous ranges:
// fn(lo, hi) covers lo <= i < hi. Each worker gets ~4 ranges — small
// enough to balance, large enough that at 100k-node scale the
// per-index dispatch cost (one atomic increment each) amortizes to one
// per range, and fn can hoist per-worker scratch out of its inner loop.
//
// Like Run, fn must be safe for concurrent invocation across disjoint
// ranges and RunChunked must not be called concurrently with itself or
// Run on the same Pool. Nil and width-1 pools run the whole range
// inline as one chunk.
func (p *Pool) RunChunked(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + p.workers*4 - 1) / (p.workers * 4)
	chunks := (n + chunk - 1) / chunk
	if chunks == 1 {
		fn(0, n)
		return
	}
	p.Run(chunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// Close releases the pool's goroutines. Safe on nil pools and
// idempotent; Run must not be in flight or called afterwards. The
// work channel is kept (closed) so a buggy post-Close Run panics with
// "send on closed channel" instead of blocking forever.
func (p *Pool) Close() {
	if p == nil || p.closed || p.work == nil {
		return
	}
	p.closed = true
	close(p.work)
}
