package par

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		const n = 100
		hits := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

// TestPoolCoversAllIndexes checks exactly-once execution across batch
// sizes, including batches smaller than the pool.
func TestPoolCoversAllIndexes(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 5, 64, 1000} {
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, got)
			}
		}
	}
}

// TestPoolReuseAcrossBatches dispatches many consecutive batches —
// the per-slot phase pattern — and checks the running total.
func TestPoolReuseAcrossBatches(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var sum atomic.Int64
	for batch := 0; batch < 200; batch++ {
		p.Run(17, func(i int) { sum.Add(int64(i)) })
	}
	want := int64(200 * 17 * 16 / 2)
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestPoolRunChunkedCoversAllIndexes checks exactly-once coverage of
// the range form across pool widths and batch sizes, including sizes
// the automatic chunk does not divide.
func TestPoolRunChunkedCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			p.RunChunked(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
					return
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times",
						workers, n, i, got)
				}
			}
		}
		p.Close()
	}

	// Nil pool: one inline chunk.
	var nilPool *Pool
	calls := 0
	nilPool.RunChunked(10, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("nil pool chunk [%d,%d), want [0,10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("nil pool made %d calls, want 1", calls)
	}
}

// TestPoolSerialFallbacks pins the inline paths: nil pools, width-1
// pools and single-item batches run on the caller.
func TestPoolSerialFallbacks(t *testing.T) {
	var nilPool *Pool
	ran := 0
	nilPool.Run(3, func(i int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d of 3", ran)
	}
	nilPool.Close() // must not panic

	p1 := NewPool(1)
	ran = 0
	p1.Run(4, func(i int) { ran++ })
	if ran != 4 {
		t.Fatalf("width-1 pool ran %d of 4", ran)
	}
	p1.Close()
	p1.Close() // idempotent

	p := NewPool(8)
	ran = 0
	p.Run(1, func(i int) { ran++ }) // single item stays inline
	if ran != 1 {
		t.Fatalf("single-item batch ran %d of 1", ran)
	}
	p.Close()
	p.Close()
}
