package ledger

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// Snapshot persistence: IoT devices reboot, and a 2LDAG node that loses
// S_i loses the data only it stores (the whole point of the
// architecture is that nobody else holds it). NodeState.WriteSnapshot
// serializes the whole node — S_i's blocks, the trust store's headers
// (H_i, insertion order), the digest cache (A_i, node-sorted) and the
// trust cap — behind a magic header and a trailing CRC-32C sealing the
// stream. This is what FileBackend compacts to, so recovery restores
// the whole node, not just S_i. Only this v2 stream is read; any other
// magic, including the retired store-only v1, is ErrBadSnapshot.

// snapshotMagicV2 identifies whole-node snapshot streams (version 2).
var snapshotMagicV2 = [8]byte{'2', 'L', 'D', 'G', 'S', 'N', 'P', 2}

// Snapshot errors.
var (
	ErrBadSnapshot = errors.New("ledger: malformed snapshot")
	ErrWrongOwner  = errors.New("ledger: snapshot belongs to another node")
)

// maxSnapshotBlock bounds one serialized block in a snapshot.
const maxSnapshotBlock = block.MaxBodyLen + 1<<20

// crcWriter tracks a CRC-32C over everything written, so the v2 writer
// can seal the stream with a trailing checksum.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, walTable, p[:n])
	return n, err
}

// writeU32 writes one little-endian uint32.
func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// writeU64 writes one little-endian uint64.
func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

// writeFramed writes a length-prefixed byte string.
func writeFramed(w io.Writer, p []byte) error {
	if err := writeU32(w, uint32(len(p))); err != nil {
		return err
	}
	_, err := w.Write(p)
	return err
}

// WriteSnapshot serializes the whole node state as a v2 stream:
//
//	magic(8) | owner(4) | trustCap(4)
//	| blockCount(4)  | { len(4) | block.Encode }…
//	| trustInserted(8)                                   (lifetime H_i Adds)
//	| headerCount(4) | { len(4) | block.EncodeHeader }…  (insertion order)
//	| entryCount(4)  | { node(4) | digest(32) }…         (node-sorted)
//	| crc32c(4) over everything above
//
// Each structure is serialized under its own read lock; the writer must
// exclude mutations (or rely on WAL-replay idempotency, as FileBackend
// compaction does) for the stream to be a consistent cut.
func (st *NodeState) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.Write(snapshotMagicV2[:]); err != nil {
		return fmt.Errorf("ledger: writing snapshot header: %w", err)
	}
	if err := writeU32(cw, uint32(st.Store.Owner())); err != nil {
		return fmt.Errorf("ledger: writing snapshot meta: %w", err)
	}
	if err := writeU32(cw, uint32(st.TrustCap)); err != nil {
		return fmt.Errorf("ledger: writing snapshot meta: %w", err)
	}
	if err := st.Store.writeSnapshotBlocks(cw); err != nil {
		return err
	}
	if err := st.Trust.writeSnapshotHeaders(cw); err != nil {
		return err
	}
	if err := st.Cache.writeSnapshotEntries(cw); err != nil {
		return err
	}
	if err := writeU32(bw, cw.crc); err != nil {
		return fmt.Errorf("ledger: writing snapshot CRC: %w", err)
	}
	return bw.Flush()
}

// writeSnapshotBlocks writes the block section (count + blocks) under
// the store's read lock.
func (s *Store) writeSnapshotBlocks(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := writeU32(w, uint32(len(s.blocks))); err != nil {
		return fmt.Errorf("ledger: writing block count: %w", err)
	}
	for _, b := range s.blocks {
		if err := writeFramed(w, block.Encode(b)); err != nil {
			return fmt.Errorf("ledger: writing block: %w", err)
		}
	}
	return nil
}

// snapSource is a cursor over a snapshot stream body: in-memory
// (snapReader) or file-backed (snapStream). take's result is only
// valid until the next take — decoders copy what they keep
// (block.Decode and block.DecodeHeader copy body and signature).
type snapSource interface {
	take(n int) ([]byte, error)
	leftover() int
}

// snapReader is a cursor over an in-memory snapshot stream.
type snapReader struct {
	buf []byte
	off int
}

func (r *snapReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.buf)-r.off < n {
		return nil, io.ErrUnexpectedEOF
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p, nil
}

func (r *snapReader) leftover() int { return len(r.buf) - r.off }

// snapStream is a cursor over a file-backed snapshot stream: reads go
// through a bufio.Reader into one reusable, growable scratch buffer,
// so a cold start never materializes the whole snapshot in memory.
// rem bounds the body (it excludes any trailing CRC), so an oversized
// length field cannot read past the validated region.
type snapStream struct {
	r   *bufio.Reader
	rem int
	buf []byte
}

func (s *snapStream) take(n int) ([]byte, error) {
	if n < 0 || n > s.rem {
		return nil, io.ErrUnexpectedEOF
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, n+n/4)
	}
	p := s.buf[:n]
	if _, err := io.ReadFull(s.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	s.rem -= n
	return p, nil
}

func (s *snapStream) leftover() int { return s.rem }

func snapU32(r snapSource) (uint32, error) {
	p, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func snapU64(r snapSource) (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

func snapFramed(r snapSource, limit uint32) ([]byte, error) {
	n, err := snapU32(r)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("record size %d exceeds limit %d", n, limit)
	}
	return r.take(int(n))
}

// ReadSnapshotState reconstructs a whole-node state from an in-memory
// v2 snapshot stream. Blocks are
// re-sealed through opts.Params.SealBlock and — when opts.Ring is set
// — re-verified with opts.Params.Validate; trust headers are
// re-sealed. The stream must belong to opts.Owner (ErrWrongOwner
// otherwise). The trust cap in force is opts.TrustCap when positive,
// else the stream's recorded cap; it is applied before H_i is
// restored so FIFO bounds hold immediately. Verification parallelism
// follows opts.Workers.
func ReadSnapshotState(data []byte, opts RecoverOptions) (*NodeState, error) {
	pool := par.NewPool(opts.Workers)
	defer pool.Close()
	r := &snapReader{buf: data}
	magic, err := r.take(8)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if [8]byte(magic) != snapshotMagicV2 {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	// The trailing CRC seals everything before it; check it before
	// trusting any length field.
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, walTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadSnapshot)
	}
	r.buf = body
	return readSnapshotBody(r, opts, pool)
}

// readSnapshotStream is the file-backed counterpart Recover uses: one
// fixed-buffer pass checksums the stream, then the body is decoded
// through snapStream's reusable scratch — the snapshot is never
// materialized whole. f must be positioned at the start.
func readSnapshotStream(f *os.File, opts RecoverOptions, pool *par.Pool) (*NodeState, error) {
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagicV2 {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ledger: statting snapshot: %w", err)
	}
	// The trailing CRC seals everything before it; check it before
	// trusting any length field.
	size := info.Size()
	if size < 12 {
		return nil, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	body := size - 12
	crc := crc32.Checksum(magic[:], walTable)
	buf := make([]byte, 64<<10)
	for remain := body; remain > 0; {
		n := int64(len(buf))
		if remain < n {
			n = remain
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return nil, fmt.Errorf("ledger: reading snapshot: %w", err)
		}
		crc = crc32.Update(crc, walTable, buf[:n])
		remain -= n
	}
	var tail [4]byte
	if _, err := io.ReadFull(f, tail[:]); err != nil {
		return nil, fmt.Errorf("ledger: reading snapshot: %w", err)
	}
	if crc != binary.LittleEndian.Uint32(tail[:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadSnapshot)
	}
	if _, err := f.Seek(8, io.SeekStart); err != nil {
		return nil, fmt.Errorf("ledger: seeking snapshot: %w", err)
	}
	src := &snapStream{r: bufio.NewReaderSize(f, 64<<10), rem: int(body)}
	return readSnapshotBody(src, opts, pool)
}

// readSnapshotBody reads everything after the magic. The sequential
// scan does all decoding and structural checking and queues each
// block's re-seal/re-verify on the pool (recoverVerifier); blocks then
// retire into the store in order, so state, errors, and error order
// are byte-identical to the serial path regardless of pool width.
func readSnapshotBody(r snapSource, opts RecoverOptions, pool *par.Pool) (*NodeState, error) {
	verify := recoverVerifier{opts: opts, pool: pool}
	st, scanErr := scanSnapshotBody(r, opts, &verify)
	// Every queued block precedes the scan's stopping point, so the
	// first verification failure outranks scanErr — exactly the error
	// the serial loop would have hit first.
	if err := verify.run(func(i int, err error) error {
		return fmt.Errorf("%w: block %d: %v", ErrBadSnapshot, i, err)
	}); err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	for i, b := range verify.blocks {
		if err := st.Store.Append(b); err != nil {
			return nil, fmt.Errorf("%w: block %d: %v", ErrBadSnapshot, verify.labels[i], err)
		}
	}
	return st, nil
}

// scanSnapshotBody is readSnapshotBody's sequential pass: meta, block
// section (decode + structure, verification queued), then the trust
// and cache sections. On error the returned state is partial and
// the caller discards it.
func scanSnapshotBody(r snapSource, opts RecoverOptions, verify *recoverVerifier) (*NodeState, error) {
	ownerWord, err := snapU32(r)
	if err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrBadSnapshot, err)
	}
	owner := identity.NodeID(ownerWord)
	if owner != opts.Owner {
		return nil, fmt.Errorf("%w: snapshot owner %v, recovering %v", ErrWrongOwner, owner, opts.Owner)
	}
	trustCap := opts.TrustCap
	recorded, err := snapU32(r)
	if err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrBadSnapshot, err)
	}
	if trustCap <= 0 {
		trustCap = int(recorded)
	}
	st := NewNodeState(owner, trustCap)

	blockCount, err := snapU32(r)
	if err != nil {
		return st, fmt.Errorf("%w: block count: %v", ErrBadSnapshot, err)
	}
	for i := uint32(0); i < blockCount; i++ {
		enc, err := snapFramed(r, maxSnapshotBlock)
		if err != nil {
			return st, fmt.Errorf("%w: block %d: %v", ErrBadSnapshot, i, err)
		}
		b, err := block.Decode(enc)
		if err != nil {
			return st, fmt.Errorf("%w: block %d: %v", ErrBadSnapshot, i, err)
		}
		if b.Header.Origin != owner {
			return st, fmt.Errorf("%w: block %d origin %v", ErrWrongOwner, i, b.Header.Origin)
		}
		// Queue before the sequence check: a block that fails both has
		// its verification failure reported, like the serial loop, which
		// seals and validates before Store.Append can reject the seq.
		verify.add(b, int(i))
		if int64(b.Header.Seq) != int64(i) {
			// Mirrors Store.Append's rejection so the scan can stop
			// without appending anything yet.
			return st, fmt.Errorf("%w: block %d: %v", ErrBadSnapshot, i,
				fmt.Errorf("%w: seq %d, want %d", ErrBadSeq, b.Header.Seq, i))
		}
	}
	trustInserted, err := snapU64(r)
	if err != nil {
		return st, fmt.Errorf("%w: trust insertion count: %v", ErrBadSnapshot, err)
	}
	headerCount, err := snapU32(r)
	if err != nil {
		return st, fmt.Errorf("%w: header count: %v", ErrBadSnapshot, err)
	}
	if trustInserted > uint64(1)<<62 || trustInserted < uint64(headerCount) {
		return st, fmt.Errorf("%w: trust insertion count %d with %d headers", ErrBadSnapshot, trustInserted, headerCount)
	}
	for i := uint32(0); i < headerCount; i++ {
		enc, err := snapFramed(r, maxSnapshotBlock)
		if err != nil {
			return st, fmt.Errorf("%w: trust header %d: %v", ErrBadSnapshot, i, err)
		}
		h, err := block.DecodeHeader(enc)
		if err != nil {
			return st, fmt.Errorf("%w: trust header %d: %v", ErrBadSnapshot, i, err)
		}
		h.Seal()
		st.Trust.Add(h)
	}
	// The recorded count, not the restored Adds, is the replay horizon:
	// it includes headers inserted and since evicted before the gather.
	st.Trust.setInsertions(int64(trustInserted))
	entryCount, err := snapU32(r)
	if err != nil {
		return st, fmt.Errorf("%w: cache entry count: %v", ErrBadSnapshot, err)
	}
	for i := uint32(0); i < entryCount; i++ {
		p, err := r.take(4 + digest.Size)
		if err != nil {
			return st, fmt.Errorf("%w: cache entry %d: %v", ErrBadSnapshot, i, err)
		}
		from := identity.NodeID(binary.LittleEndian.Uint32(p[:4]))
		var d digest.Digest
		copy(d[:], p[4:])
		st.Cache.Update(from, d)
	}
	if n := r.leftover(); n != 0 {
		return st, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, n)
	}
	return st, nil
}
