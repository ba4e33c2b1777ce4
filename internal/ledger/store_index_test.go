package ledger

import (
	"math/rand"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// seededLog builds n blocks for key. Besides the own-previous link,
// each block's Δ draws a seeded subset of the first len(pool)-2 pool
// digests, so a digest is referenced by some blocks and skipped by
// others; the last two pool digests are never referenced.
func seededLog(t *testing.T, key identity.KeyPair, n int, pool []digest.Digest, seed int64) []*block.Block {
	t.Helper()
	p := testParams()
	rng := rand.New(rand.NewSource(seed))
	var out []*block.Block
	prev := digest.Digest{}
	for i := 0; i < n; i++ {
		refs := []block.DigestRef{{Node: key.ID, Digest: prev}}
		for j, d := range pool[:len(pool)-2] {
			if rng.Intn(5) < 2 {
				refs = append(refs, block.DigestRef{Node: identity.NodeID(10 + j), Digest: d})
			}
		}
		b, err := p.Build(key, uint32(i), uint32(i), []byte{byte(i)}, refs)
		if err != nil {
			t.Fatalf("Build %d: %v", i, err)
		}
		out = append(out, b)
		prev = b.Header.Hash()
	}
	return out
}

// scanContaining is the oracle for the responder index: a linear scan
// over the whole log for the oldest block whose Δ contains d, and the
// number of such blocks.
func scanContaining(t *testing.T, s *Store, d digest.Digest) (*block.Block, int) {
	t.Helper()
	var oldest *block.Block
	count := 0
	for seq := 0; seq < s.Len(); seq++ {
		b, err := s.Get(uint32(seq))
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range b.Header.Digests {
			if ref.Digest == d {
				if oldest == nil {
					oldest = b
				}
				count++
				break
			}
		}
	}
	return oldest, count
}

// seqOf names a lookup result in failure messages; -1 is no match.
func seqOf(b *block.Block) int {
	if b == nil {
		return -1
	}
	return int(b.Header.Seq)
}

// checkAgainstScan requires the responder queries of s to agree with
// the linear-scan oracle for each digest.
func checkAgainstScan(t *testing.T, s *Store, queries []digest.Digest) {
	t.Helper()
	for qi, d := range queries {
		want, count := scanContaining(t, s, d)
		if got, ok := s.OldestContaining(d); ok != (want != nil) || got != want {
			t.Fatalf("len %d, query %d: OldestContaining = seq %d; scan says seq %d", s.Len(), qi, seqOf(got), seqOf(want))
		}
		if got := s.CountContaining(d); got != count {
			t.Fatalf("len %d, query %d: CountContaining = %d; scan says %d", s.Len(), qi, got, count)
		}
	}
}

// TestStoreIndexMatchesLinearScan checks the lazily built responder
// index against a linear scan at every log length, for
// referenced, unreferenced and own-hash digests. The index is built
// once by a query before any append and once by the first query after
// all appends.
func TestStoreIndexMatchesLinearScan(t *testing.T) {
	const n = 40
	key := identity.Deterministic(1, 1)
	pool := make([]digest.Digest, 8)
	for i := range pool {
		pool[i] = digest.Sum([]byte{'p', byte(i)})
	}
	blocks := seededLog(t, key, n, pool, 7)
	queries := append([]digest.Digest{}, pool...)
	for _, b := range blocks {
		queries = append(queries, b.Header.Hash())
	}

	t.Run("built-before-appends", func(t *testing.T) {
		s := NewStore(1)
		checkAgainstScan(t, s, queries)
		for _, b := range blocks {
			if err := s.Append(b); err != nil {
				t.Fatal(err)
			}
			checkAgainstScan(t, s, queries)
		}
	})
	t.Run("built-after-appends", func(t *testing.T) {
		for l := 0; l <= n; l++ {
			s := NewStore(1)
			for _, b := range blocks[:l] {
				if err := s.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstScan(t, s, queries)
		}
	})
}

// TestCompactIndexStaysCurrentAfterLazyBuild queries the responder
// index early (forcing the lazy build) and then keeps appending:
// post-build appends must land in the index incrementally.
func TestCompactIndexStaysCurrentAfterLazyBuild(t *testing.T) {
	key := identity.Deterministic(1, 1)
	target := digest.Sum([]byte("late ref"))
	blocks := chainFor(t, key, 4, []block.DigestRef{{Node: 9, Digest: target}})

	s := NewStore(1)
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// Force the lazy build with only one block in the log.
	if s.CountContaining(target) != 1 {
		t.Fatal("index wrong after lazy build")
	}
	for _, b := range blocks[1:] {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.CountContaining(target) != 4 {
		t.Fatalf("CountContaining = %d, want 4 after post-build appends", s.CountContaining(target))
	}
	if oldest, ok := s.OldestContaining(blocks[2].Header.Hash()); !ok || oldest.Header.Seq != 3 {
		t.Fatal("post-build append missing from index")
	}
}

func TestDigestCacheAppendSnapshotReusesScratch(t *testing.T) {
	c := NewDigestCache()
	d1, d2 := digest.Sum([]byte("a")), digest.Sum([]byte("b"))
	c.Update(2, d1)
	c.Update(3, d2)
	scratch := make([]block.DigestRef, 0, 8)
	prev := digest.Sum([]byte("prev"))
	got := c.AppendSnapshot(scratch[:0], 1, prev, []identity.NodeID{3, 2, 7})
	want := c.Snapshot(1, prev, []identity.NodeID{3, 2, 7})
	if len(got) != len(want) {
		t.Fatalf("len mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendSnapshot did not reuse the scratch backing array")
	}
}
