package ledger

import (
	"fmt"
	"io"
	"sync"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
)

// TrustStore is H_i: block headers a validator has already verified
// through PoP (paper Sec. IV-B). It is indexed two ways:
//
//   - by header hash, to deduplicate; and
//   - by contained digest, so Trust Path Selection (Alg. 2) can answer
//     "do I already hold a child of the block hashing to d?" in O(1).
type TrustStore struct {
	mu      sync.RWMutex
	headers map[digest.Digest]*block.Header // header hash → header
	// children maps a digest d to the hashes of stored headers whose Δ
	// contains d, in insertion order.
	children  map[digest.Digest][]digest.Digest
	totalRefs int64

	// order records insertion order from head onward. It serves two
	// masters: the FIFO bound (capLimit > 0) evicts oldest-inserted
	// first — the scale runs cap H_i so ten-thousand-validator
	// simulations stay bounded — and snapshot v2 serializes headers in
	// insertion order so a restored store reproduces ChildOf's
	// earliest-inserted-wins choices exactly.
	capLimit int
	order    []digest.Digest
	head     int
	// inserted counts successful Adds over the store's lifetime. It is
	// the insertion horizon durability needs: each journaled header
	// carries its index, snapshots record the count at gather time, and
	// WAL replay skips records below it — re-adding a since-evicted
	// header would evict a different live one.
	inserted int64

	// journal, when set, durably records every newly added header.
	// nil = in-memory only.
	journal Journal
}

// NewTrustStore returns an empty H_i.
func NewTrustStore() *TrustStore {
	return &TrustStore{
		headers:  make(map[digest.Digest]*block.Header),
		children: make(map[digest.Digest][]digest.Digest),
	}
}

// SetCap bounds H_i to at most n headers, evicting oldest-inserted
// first. Eviction order is a pure function of insertion order, so a
// capped store stays deterministic. n <= 0 restores the default
// unbounded behavior. Insertion order is always tracked, so a cap set
// on a populated store takes effect from the next Add on, evicting the
// oldest entries first.
func (t *TrustStore) SetCap(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capLimit = n
}

// Cap returns the FIFO bound in force (0 = unbounded).
func (t *TrustStore) Cap() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.capLimit
}

// SetJournal installs a durability journal: every subsequent newly
// added header is logged (buffered; see FileBackend's fsync
// discipline) in insertion order. Install before the store sees
// traffic.
func (t *TrustStore) SetJournal(j Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = j
}

// Add stores a verified header. Duplicates are ignored (and detected
// before any copying). It returns true when the header was newly
// added. Sealed headers — immutable by contract everywhere in this
// codebase — are stored by shared reference, so the thousands of
// validators of a scaled simulation index the one header held in its
// origin's store instead of cloning it apiece; unsealed headers are
// defensively cloned.
func (t *TrustStore) Add(h *block.Header) bool {
	sealed := h.Sealed()
	hh := h.Hash()
	t.mu.RLock()
	_, dup := t.headers[hh]
	t.mu.RUnlock()
	if dup {
		return false
	}
	cp := h
	if !sealed {
		cp = h.CloneSealed()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.headers[hh]; ok {
		return false
	}
	// Journal inside the lock so the logged order is exactly the
	// insertion order replay must reproduce; the index identifies this
	// insertion across snapshot horizons. A journal error degrades
	// durability, never the live store: the backend keeps it sticky
	// and surfaces it on Sync/Close.
	if t.journal != nil {
		_ = t.journal.LogTrust(cp, t.inserted)
	}
	t.inserted++
	t.headers[hh] = cp
	for _, ref := range cp.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		t.children[ref.Digest] = append(t.children[ref.Digest], hh)
		t.totalRefs++
	}
	t.order = append(t.order, hh)
	if t.capLimit > 0 {
		for len(t.headers) > t.capLimit && t.head < len(t.order) {
			t.evictLocked(t.order[t.head])
			t.head++
		}
	}
	// Compact the order slice once the dead prefix dominates, so the
	// backing array doesn't grow with total insertions.
	if t.head > len(t.order)/2 && t.head > t.capLimit && t.head > 64 {
		t.order = append(t.order[:0], t.order[t.head:]...)
		t.head = 0
	}
	return true
}

// Insertions returns the number of successful Adds over the store's
// lifetime (evicted headers included) — the replay horizon recorded in
// snapshots and carried by every journaled trust record.
func (t *TrustStore) Insertions() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.inserted
}

// setInsertions restores the lifetime insertion count from a snapshot.
func (t *TrustStore) setInsertions(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inserted = n
}

// writeSnapshotHeaders writes the snapshot-v2 trust section (insertion
// count + live-header count + headers in insertion order) under the
// read lock.
func (t *TrustStore) writeSnapshotHeaders(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := writeU64(w, uint64(t.inserted)); err != nil {
		return fmt.Errorf("ledger: writing trust insertion count: %w", err)
	}
	// order[head:] holds exactly the live headers: every Add appends
	// one entry and every eviction advances head past one, so the
	// count and the map size agree by construction.
	live := t.order[t.head:]
	if err := writeU32(w, uint32(len(live))); err != nil {
		return fmt.Errorf("ledger: writing trust count: %w", err)
	}
	for _, hh := range live {
		if err := writeFramed(w, block.EncodeHeader(t.headers[hh])); err != nil {
			return fmt.Errorf("ledger: writing trust header: %w", err)
		}
	}
	return nil
}

// evictLocked removes the header with the given hash from both
// indexes. Caller holds t.mu for writing.
func (t *TrustStore) evictLocked(hh digest.Digest) {
	h, ok := t.headers[hh]
	if !ok {
		return
	}
	delete(t.headers, hh)
	for _, ref := range h.Digests {
		if ref.Digest.IsZero() {
			continue
		}
		t.totalRefs--
		list := t.children[ref.Digest]
		for k, x := range list {
			if x == hh {
				list = append(list[:k], list[k+1:]...)
				break
			}
		}
		if len(list) == 0 {
			delete(t.children, ref.Digest)
		} else {
			t.children[ref.Digest] = list
		}
	}
}

// Has reports whether a header with the given hash is stored.
func (t *TrustStore) Has(headerHash digest.Digest) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.headers[headerHash]
	return ok
}

// Get returns the stored (sealed, read-only) header with the given
// hash.
func (t *TrustStore) Get(headerHash digest.Digest) (*block.Header, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h, ok := t.headers[headerHash]
	if !ok {
		return nil, false
	}
	return h, true
}

// ChildOf returns a stored (sealed, read-only) header whose Δ contains
// d — the TPS lookup of Eq. 9. When several qualify, the earliest
// inserted wins, which keeps path reconstruction deterministic.
func (t *TrustStore) ChildOf(d digest.Digest) (*block.Header, bool) {
	if d.IsZero() {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	hashes := t.children[d]
	if len(hashes) == 0 {
		return nil, false
	}
	return t.headers[hashes[0]], true
}

// Len returns the number of distinct headers in H_i.
func (t *TrustStore) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.headers)
}

// ModelBits returns the footprint of H_i under the paper's size model,
// matching Prop. 2's accounting: each header costs f_c + f_H·|Δ|.
func (t *TrustStore) ModelBits(m block.SizeModel) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.headers))*int64(m.ConstantBits()) + t.totalRefs*int64(m.FH)
}
