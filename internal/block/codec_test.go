package block

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

func randomHeader(r *rand.Rand) *Header {
	nRefs := r.Intn(6)
	h := &Header{
		Version: r.Uint32(),
		Time:    r.Uint32(),
		Origin:  identity.NodeID(r.Uint32()),
		Seq:     r.Uint32(),
		Nonce:   r.Uint32(),
	}
	r.Read(h.Root[:])
	for i := 0; i < nRefs; i++ {
		var ref DigestRef
		ref.Node = identity.NodeID(r.Uint32())
		r.Read(ref.Digest[:])
		h.Digests = append(h.Digests, ref)
	}
	h.Signature = make([]byte, identity.SignatureSize)
	r.Read(h.Signature)
	return h
}

func headersEqual(a, b *Header) bool {
	if a.Version != b.Version || a.Time != b.Time || a.Origin != b.Origin ||
		a.Seq != b.Seq || a.Root != b.Root || a.Nonce != b.Nonce ||
		len(a.Digests) != len(b.Digests) || string(a.Signature) != string(b.Signature) {
		return false
	}
	for i := range a.Digests {
		if a.Digests[i] != b.Digests[i] {
			return false
		}
	}
	return true
}

func TestHeaderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		h := randomHeader(r)
		enc := EncodeHeader(h)
		if len(enc) != h.WireSize() {
			t.Fatalf("WireSize %d != encoded %d", h.WireSize(), len(enc))
		}
		got, err := DecodeHeader(enc)
		if err != nil {
			t.Fatalf("DecodeHeader: %v", err)
		}
		if !headersEqual(h, got) {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		b := &Block{Header: *randomHeader(r), Body: make([]byte, r.Intn(500))}
		r.Read(b.Body)
		enc := Encode(b)
		if len(enc) != b.WireSize() {
			t.Fatalf("WireSize %d != encoded %d", b.WireSize(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !headersEqual(&b.Header, &got.Header) || string(b.Body) != string(got.Body) {
			t.Fatal("block round trip mismatch")
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	h := randomHeader(r)
	enc := EncodeHeader(h)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeHeader(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	h := randomHeader(r)
	enc := append(EncodeHeader(h), 0xAA)
	if _, err := DecodeHeader(enc); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", err)
	}
	b := &Block{Header: *h, Body: []byte("abc")}
	enc2 := append(Encode(b), 0x01)
	if _, err := Decode(enc2); !errors.Is(err, ErrTrailing) {
		t.Fatalf("want ErrTrailing for block, got %v", err)
	}
}

func TestDecodeHostileCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	h := randomHeader(r)
	h.Digests = nil
	enc := EncodeHeader(h)
	// Digest-ref count lives after version/time/origin/seq/root.
	off := 4*4 + digest.Size
	for _, hostile := range []uint32{MaxDigestRefs + 1, 1 << 30, 0xFFFFFFFF} {
		mut := append([]byte(nil), enc...)
		mut[off] = byte(hostile)
		mut[off+1] = byte(hostile >> 8)
		mut[off+2] = byte(hostile >> 16)
		mut[off+3] = byte(hostile >> 24)
		if _, err := DecodeHeader(mut); err == nil {
			t.Fatalf("hostile digest count %d accepted", hostile)
		}
	}
}

func TestDecodeEmptyInput(t *testing.T) {
	if _, err := DecodeHeader(nil); err == nil {
		t.Fatal("empty header accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty block accepted")
	}
}

func TestDecodedHeaderHashStable(t *testing.T) {
	// Hash must be computable identically before and after a round trip.
	r := rand.New(rand.NewSource(6))
	h := randomHeader(r)
	got, err := DecodeHeader(EncodeHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != h.Hash() {
		t.Fatal("hash changed across codec round trip")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHeader(r)
		got, err := DecodeHeader(EncodeHeader(h))
		return err == nil && headersEqual(h, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode: arbitrary bytes must never panic the decoders, and the
// codec is canonical (fixed-width fields, exact length prefixes, no
// trailing bytes), so any input that decodes re-encodes byte for byte.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		h := randomHeader(r)
		f.Add(EncodeHeader(h))
		b := &Block{Header: *h, Body: make([]byte, r.Intn(64))}
		r.Read(b.Body)
		enc := Encode(b)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if h, err := DecodeHeader(raw); err == nil {
			if enc := EncodeHeader(h); !bytes.Equal(enc, raw) {
				t.Fatalf("header re-encodes to %x, decoded from %x", enc, raw)
			}
		}
		if b, err := Decode(raw); err == nil {
			if enc := Encode(b); !bytes.Equal(enc, raw) {
				t.Fatalf("block re-encodes to %x, decoded from %x", enc, raw)
			}
		}
	})
}

func BenchmarkEncodeHeader(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	h := randomHeader(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeHeader(h)
	}
}

func BenchmarkDecodeHeader(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	enc := EncodeHeader(randomHeader(r))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeHeader(enc); err != nil {
			b.Fatal(err)
		}
	}
}
