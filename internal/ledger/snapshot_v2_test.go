package ledger

import (
	"bytes"
	"errors"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// populatedState builds a node state with blocks, trust headers from a
// neighbor, digest-cache entries, and the given cap — a representative
// cut of everything snapshot v2 must carry.
func populatedState(t *testing.T, trustCap int) *NodeState {
	t.Helper()
	st := NewNodeState(4, trustCap)
	key := identity.Deterministic(4, 4)
	for _, b := range chainFor(t, key, 4, nil) {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	nb := identity.Deterministic(9, 4)
	for _, b := range chainFor(t, nb, 3, nil) {
		st.Trust.Add(b.Header.Clone())
	}
	st.Cache.Update(9, digest.Sum([]byte("nine")))
	st.Cache.Update(2, digest.Sum([]byte("two")))
	return st
}

func stateOpts() RecoverOptions {
	return RecoverOptions{Owner: 4, Params: testParams()}
}

// stateBytes serializes st as a v2 snapshot — also the byte-identity
// probe the equivalence tests use.
func stateBytes(t *testing.T, st *NodeState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotV2RoundTrip(t *testing.T) {
	st := populatedState(t, 0)
	raw := stateBytes(t, st)
	got, err := ReadSnapshotState(raw, stateOpts())
	if err != nil {
		t.Fatalf("ReadSnapshotState: %v", err)
	}
	// Byte-identity is the real contract: re-serializing the restored
	// state must reproduce the stream exactly (insertion order of H_i,
	// node order of A_i, every seal intact).
	if !bytes.Equal(stateBytes(t, got), raw) {
		t.Fatal("restored state re-serializes differently")
	}
	if got.Store.Len() != 4 || got.Trust.Len() != 3 || got.Cache.Len() != 2 {
		t.Fatalf("restored sizes: %d blocks, %d headers, %d entries",
			got.Store.Len(), got.Trust.Len(), got.Cache.Len())
	}
	b, _ := got.Store.Get(0)
	if !b.Sealed() {
		t.Fatal("restored block not fully sealed")
	}
	if d, ok := got.Cache.Get(9); !ok || d != digest.Sum([]byte("nine")) {
		t.Fatal("cache entry lost")
	}
}

// TestSnapshotV2TrustCap: the recorded cap restores by default; a
// positive RecoverOptions.TrustCap overrides it (redeployment wins).
func TestSnapshotV2TrustCap(t *testing.T) {
	st := populatedState(t, 5)
	raw := stateBytes(t, st)

	got, err := ReadSnapshotState(raw, stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.TrustCap != 5 || got.Trust.Cap() != 5 {
		t.Fatalf("recorded cap not adopted: %d/%d", got.TrustCap, got.Trust.Cap())
	}

	opts := stateOpts()
	opts.TrustCap = 2
	got, err = ReadSnapshotState(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrustCap != 2 || got.Trust.Cap() != 2 {
		t.Fatalf("override cap not applied: %d/%d", got.TrustCap, got.Trust.Cap())
	}
	// The cap was in force during the restore: only the 2 newest of the
	// 3 recorded headers survive, FIFO order preserved.
	if got.Trust.Len() != 2 {
		t.Fatalf("capped restore kept %d headers", got.Trust.Len())
	}
}

// TestSnapshotV2CapEvictionOrder: a capped store snapshots its live
// FIFO window, and a restore replays Adds in insertion order so the
// next eviction hits the same header it would have live.
func TestSnapshotV2CapEvictionOrder(t *testing.T) {
	st := NewNodeState(4, 2)
	nb := identity.Deterministic(9, 4)
	blocks := chainFor(t, nb, 4, nil)
	for _, b := range blocks {
		st.Trust.Add(b.Header.Clone()) // cap 2: ends with headers 2,3
	}
	got, err := ReadSnapshotState(stateBytes(t, st), stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Trust.Has(blocks[2].Header.Hash()) || !got.Trust.Has(blocks[3].Header.Hash()) {
		t.Fatal("live FIFO window lost")
	}
	// One more Add must evict header 2 — the oldest of the restored
	// window — exactly as it would have without the restart.
	extra := chainFor(t, nb, 5, nil)[4]
	got.Trust.Add(extra.Header.Clone())
	if got.Trust.Has(blocks[2].Header.Hash()) || !got.Trust.Has(blocks[3].Header.Hash()) {
		t.Fatal("restored FIFO evicts in the wrong order")
	}
}

func TestSnapshotV2RejectsCorruption(t *testing.T) {
	raw := stateBytes(t, populatedState(t, 0))

	// Any single flipped byte trips the stream CRC.
	for _, i := range []int{8, len(raw) / 2, len(raw) - 5} {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xFF
		if _, err := ReadSnapshotState(bad, stateOpts()); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("flip %d: %v", i, err)
		}
	}
	// So does truncation — including cutting into the trailing CRC.
	for _, cut := range []int{0, 7, 11, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadSnapshotState(raw[:cut], stateOpts()); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut %d: %v", cut, err)
		}
	}
}

func TestSnapshotV2WrongOwner(t *testing.T) {
	raw := stateBytes(t, populatedState(t, 0))
	opts := stateOpts()
	opts.Owner = 5
	if _, err := ReadSnapshotState(raw, opts); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("wrong owner: %v", err)
	}
}

// TestSnapshotArenaStore pins satellite invariant: an arena-backed
// compact store serializes byte-identically to a sharded store holding
// the same blocks — WriteSnapshot never needs the arena.
func TestSnapshotArenaStore(t *testing.T) {
	key := identity.Deterministic(4, 4)
	blocks := chainFor(t, key, 5, nil)

	sharded := NewStore(4)
	arena := NewArena()
	compact := NewStoreInArena(4, arena)
	for _, b := range blocks {
		if err := sharded.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := compact.Append(b); err != nil {
			t.Fatal(err)
		}
	}

	stA := &NodeState{Store: sharded, Trust: NewTrustStore(), Cache: NewDigestCache()}
	stB := &NodeState{Store: compact, Trust: NewTrustStore(), Cache: NewDigestCache()}
	if !bytes.Equal(stateBytes(t, stA), stateBytes(t, stB)) {
		t.Fatal("arena-backed snapshot differs from sharded snapshot")
	}
	// Round-trip restores a fully indexed, sealed store.
	restored, err := ReadSnapshotState(stateBytes(t, stB), stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Store.Len() != 5 {
		t.Fatal("arena snapshot lost blocks")
	}
	if _, ok := restored.Store.OldestContaining(blocks[0].Header.Hash()); !ok {
		t.Fatal("restored store lost the digest index")
	}
}

// FuzzReadSnapshotState: arbitrary bytes must never panic; on success
// the state must be consistent and re-serializable.
func FuzzReadSnapshotState(f *testing.F) {
	st := NewNodeState(4, 3)
	key := identity.Deterministic(4, 4)
	p := testParams()
	b, err := p.Build(key, 0, 0, []byte("fuzz"), []block.DigestRef{{Node: 4}})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Store.Append(b); err != nil {
		f.Fatal(err)
	}
	st.Cache.Update(9, digest.Sum([]byte("n")))
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-2])
	f.Add(append([]byte("2LDGSNP\x02"), 4, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshotState(data, RecoverOptions{Owner: 4, Params: p})
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteSnapshot(&out); err != nil {
			t.Fatalf("restored state does not re-serialize: %v", err)
		}
	})
}
