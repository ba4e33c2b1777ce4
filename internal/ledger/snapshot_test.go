package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// snapshotState builds a node state whose store holds n chained blocks
// of node 4 and whose H_i and A_i are empty.
func snapshotState(t *testing.T, n int) *NodeState {
	t.Helper()
	key := identity.Deterministic(4, 4)
	st := NewNodeState(4, 0)
	extra := []block.DigestRef{{Node: 9, Digest: digest.Sum([]byte("nb"))}}
	for _, b := range chainFor(t, key, n, extra) {
		if err := st.Store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := snapshotState(t, 5)
	restored, err := ReadSnapshotState(stateBytes(t, st), stateOpts())
	if err != nil {
		t.Fatalf("ReadSnapshotState: %v", err)
	}
	s, got := st.Store, restored.Store
	if got.Owner() != s.Owner() || got.Len() != s.Len() {
		t.Fatal("snapshot lost owner or blocks")
	}
	for seq := uint32(0); seq < uint32(s.Len()); seq++ {
		a, err := s.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		if a.Header.Hash() != b.Header.Hash() || !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("block %d differs after restore", seq)
		}
	}
	// Indexes must be rebuilt: responder queries still work.
	first, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	child, ok := got.OldestContaining(first.Header.Hash())
	if !ok || child.Header.Seq != 1 {
		t.Fatal("restored store lost the digest index")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	restored, err := ReadSnapshotState(stateBytes(t, NewNodeState(4, 0)), stateOpts())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Store.Len() != 0 || restored.Store.Owner() != 4 {
		t.Fatal("empty snapshot wrong")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshotState(nil, stateOpts()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := ReadSnapshotState([]byte("not a snapshot at all"), stateOpts()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}
}

// TestSnapshotRejectsV1: the store-only v1 stream is no longer read;
// its magic is ErrBadSnapshot on the in-memory and the file path alike.
func TestSnapshotRejectsV1(t *testing.T) {
	raw := stateBytes(t, snapshotState(t, 3))
	v1 := append([]byte("2LDGSNP\x01"), raw[8:]...)
	if _, err := ReadSnapshotState(v1, stateOpts()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("in-memory v1 stream: want ErrBadSnapshot, got %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if _, err := fb.Recover(stateOpts()); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("v1 snapshot file: want ErrBadSnapshot, got %v", err)
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	raw := stateBytes(t, snapshotState(t, 3))
	for _, cut := range []int{9, 17, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadSnapshotState(raw[:cut], stateOpts()); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut %d: want ErrBadSnapshot, got %v", cut, err)
		}
	}
}

// TestSnapshotDetectsCorruptChain: a stream whose CRC is intact can
// still carry a block that breaks the chain's invariants.
func TestSnapshotDetectsCorruptChain(t *testing.T) {
	raw := stateBytes(t, snapshotState(t, 3))
	// Offset 32 is the first block's Origin field (8 magic + 4 owner +
	// 4 cap + 4 count + 4 length + version + time): changing it, then
	// resealing the CRC, must trip ErrWrongOwner.
	raw[32] ^= 0xFF
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(body, walTable))
	if _, err := ReadSnapshotState(raw, stateOpts()); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("foreign block: want ErrWrongOwner, got %v", err)
	}
}
