package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// TestOnDigestBatchMatchesSingletons pins the batching contract: one
// OnDigestBatch call leaves A_i exactly as the equivalent sequence of
// OnDigest calls, including last-wins ordering for repeated senders.
func TestOnDigestBatchMatchesSingletons(t *testing.T) {
	g := topology.PaperFig4()
	batched := newLab(t, g)
	single := newLab(t, g)

	// Node 1's neighbors announce twice each; the second announcement
	// must win on both paths.
	recv := identity.NodeID(1)
	var from []identity.NodeID
	var ds []digest.Digest
	for round := 0; round < 2; round++ {
		for _, nb := range g.Neighbors(recv) {
			from = append(from, nb)
			ds = append(ds, digest.Sum([]byte(fmt.Sprintf("d %v #%d", nb, round))))
		}
	}
	if err := batched.engines[recv].OnDigestBatch(from, ds); err != nil {
		t.Fatalf("OnDigestBatch: %v", err)
	}
	for i := range from {
		if err := single.engines[recv].OnDigest(from[i], ds[i]); err != nil {
			t.Fatalf("OnDigest: %v", err)
		}
	}
	for _, nb := range g.Neighbors(recv) {
		bd, bok := batched.engines[recv].Cache().Get(nb)
		sd, sok := single.engines[recv].Cache().Get(nb)
		if !bok || !sok || bd != sd {
			t.Fatalf("cache for %v diverges: batched (%v,%v) singleton (%v,%v)", nb, bd, bok, sd, sok)
		}
		if want := digest.Sum([]byte(fmt.Sprintf("d %v #1", nb))); bd != want {
			t.Fatalf("cache for %v = %v, want the later round's digest", nb, bd)
		}
	}
}

// TestOnDigestMatchesRepeatedSenderBatch pins how a live node ingests
// one sender's run (one neighbor check, one cache update of the
// newest digest): it must leave A_i exactly as OnDigestBatch with a
// repeated sender column, and reject non-neighbors identically.
func TestOnDigestMatchesRepeatedSenderBatch(t *testing.T) {
	g := topology.PaperFig4()
	fast := newLab(t, g)
	slow := newLab(t, g)
	recv := identity.NodeID(1)
	from := g.Neighbors(recv)[0]
	ds := []digest.Digest{
		digest.Sum([]byte("one")),
		digest.Sum([]byte("two")),
		digest.Sum([]byte("three")),
	}
	if err := fast.engines[recv].OnDigest(from, ds[len(ds)-1]); err != nil {
		t.Fatalf("OnDigest: %v", err)
	}
	col := []identity.NodeID{from, from, from}
	if err := slow.engines[recv].OnDigestBatch(col, ds); err != nil {
		t.Fatalf("OnDigestBatch: %v", err)
	}
	fd, fok := fast.engines[recv].Cache().Get(from)
	sd, sok := slow.engines[recv].Cache().Get(from)
	if !fok || !sok || fd != sd || fd != ds[len(ds)-1] {
		t.Fatalf("paths diverge: fast (%v,%v) batch (%v,%v), want newest digest", fd, fok, sd, sok)
	}
	var stranger identity.NodeID
	for _, id := range g.Nodes() {
		if id != recv && !g.IsNeighbor(recv, id) {
			stranger = id
			break
		}
	}
	if err := fast.engines[recv].OnDigest(stranger, ds[len(ds)-1]); !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("want ErrNotNeighbor, got %v", err)
	}
	if err := slow.engines[recv].OnDigestBatch([]identity.NodeID{stranger}, ds[:1]); !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("batch: want ErrNotNeighbor, got %v", err)
	}
}

// TestOnDigestBatchRejections pins the all-or-nothing contract: a
// non-neighbor sender or mismatched slice lengths reject the whole
// batch before any entry lands.
func TestOnDigestBatchRejections(t *testing.T) {
	g := topology.PaperFig4()
	l := newLab(t, g)
	recv := identity.NodeID(1)
	nb := g.Neighbors(recv)[0]

	var stranger identity.NodeID
	for _, id := range g.Nodes() {
		if id != recv && !g.IsNeighbor(recv, id) {
			stranger = id
			break
		}
	}
	good := digest.Sum([]byte("good"))
	err := l.engines[recv].OnDigestBatch(
		[]identity.NodeID{nb, stranger},
		[]digest.Digest{good, digest.Sum([]byte("bad"))},
	)
	if !errors.Is(err, ErrNotNeighbor) {
		t.Fatalf("want ErrNotNeighbor, got %v", err)
	}
	if _, ok := l.engines[recv].Cache().Get(nb); ok {
		t.Fatal("rejected batch leaked a cache entry (must be all-or-nothing)")
	}
	if err := l.engines[recv].OnDigestBatch([]identity.NodeID{nb}, nil); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
}

// TestConcurrentBatchIngest exercises the batched delivery path the
// way the parallel simulator drives it — one goroutine per receiving
// engine, plus concurrent singleton announcements racing a batch on
// the same engine — and relies on -race to flag unsynchronized cache
// access.
func TestConcurrentBatchIngest(t *testing.T) {
	g := topology.PaperFig4()
	l := newLab(t, g)
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		for _, recv := range g.Nodes() {
			nbs := g.Neighbors(recv)
			from := make([]identity.NodeID, len(nbs))
			ds := make([]digest.Digest, len(nbs))
			for i, nb := range nbs {
				from[i] = nb
				ds[i] = digest.Sum([]byte(fmt.Sprintf("r%d %v->%v", round, nb, recv)))
			}
			wg.Add(2)
			go func(recv identity.NodeID, from []identity.NodeID, ds []digest.Digest) {
				defer wg.Done()
				if err := l.engines[recv].OnDigestBatch(from, ds); err != nil {
					t.Errorf("OnDigestBatch(%v): %v", recv, err)
				}
			}(recv, from, ds)
			go func(recv, nb identity.NodeID, d digest.Digest) {
				defer wg.Done()
				if err := l.engines[recv].OnDigest(nb, d); err != nil {
					t.Errorf("OnDigest(%v): %v", recv, err)
				}
			}(recv, nbs[0], ds[0])
		}
	}
	wg.Wait()
	for _, recv := range g.Nodes() {
		if got, want := l.engines[recv].Cache().Len(), len(g.Neighbors(recv)); got != want {
			t.Fatalf("node %v cache holds %d entries, want %d", recv, got, want)
		}
	}
}
