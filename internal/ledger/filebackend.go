package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/par"
)

// FileBackend data-dir layout (one directory per node):
//
//	snapshot.2ldg — last compacted snapshot (snapshot v2: S_i blocks,
//	                H_i headers, A_i entries, trust cap, CRC-sealed).
//	                Always committed by atomic rename; never partial.
//	wal.log       — current WAL generation: every mutation since the
//	                snapshot, one CRC-framed record each (see wal.go).
//	wal.old       — previous generation, present only inside a
//	                compaction window (rotation committed, snapshot
//	                not yet); replayed between snapshot and wal.log.
//	snapshot.tmp  — snapshot being written; garbage after a crash,
//	                deleted on recovery.
//
// Fsync discipline: block records are acknowledged by the fsync of
// the commit window they were staged into (see walwriter.go) — under
// the default SyncAlways policy that fsync happens before Store.Append
// publishes the block (write-ahead — an accepted block survives a
// crash); trust and digest records are written immediately but fsynced
// lazily, piggybacking on the next commit window, Sync, or Close.
// Losing the tail of trust/digest records in a crash costs
// re-auditing, never data.
//
// Torn writes: a crash mid-record leaves wal.log with an incomplete or
// CRC-failing tail. Recovery replays the intact prefix, discards the
// tail, and the post-recovery compaction rewrites a clean snapshot —
// so the node restarts exactly at the last durable record. Only
// wal.log may end torn: a failed write poisons the generation and the
// partial frame is truncated away before any further record (or the
// rotation rename) — so replay never has to skip mid-file garbage, and
// a torn wal.old is treated as corruption, not tolerated.
const (
	snapshotFileName = "snapshot.2ldg"
	walFileName      = "wal.log"
	walOldFileName   = "wal.old"
	snapshotTmpName  = "snapshot.tmp"
)

// FileBackend is the file-backed ledger Backend: an append-only WAL
// plus snapshot-v2 compaction in a single data directory. Safe for
// concurrent journal use; Compact may run concurrently with logging.
type FileBackend struct {
	dir    string
	policy SyncPolicy
	obs    CommitObserver

	mu         sync.Mutex
	f          *os.File // wal.log, append-only
	scratch    []byte   // record frame scratch, reused under mu
	pscratch   []byte   // trust/digest payload scratch, reused under mu
	pending    int      // block records in the current WAL generation
	compacting bool
	closed     bool
	deferred   error // sticky trust/digest journal error (see Sync)
	recovered  bool
	report     RecoveryReport

	// goodOff is the byte length of wal.log's known-intact record
	// prefix; dirty marks that a failed write may have left a partial
	// frame after it. Every write first repairs (truncates back to
	// goodOff), so an fsynced block record is never preceded by garbage
	// — replay stops at the first corrupt record, and a block record
	// stranded behind one would be acknowledged-then-lost.
	goodOff int64
	dirty   bool

	// Commit-window state (see walwriter.go): syncedOff is the prefix
	// the last successful fsync acknowledged; (syncedOff, goodOff] is
	// the open window. windowBlocks counts block records staged in it,
	// waiters the SyncAlways callers blocked on its fsync.
	syncedOff    int64
	windowBlocks int
	waiters      []chan error
	fsyncs       int64 // commit windows closed since open
	committed    int64 // WAL bytes acknowledged durable since open

	kick chan struct{} // wakes the committer (capacity 1, coalescing)
	stop chan struct{} // closed by Close to retire the committer
	done chan struct{} // closed by the committer on exit
}

// RecoveryReport summarizes what the last Recover read from disk, so
// callers can surface how much state replayed and whether a torn WAL
// tail — bytes written but never fsync-acknowledged — was discarded.
type RecoveryReport struct {
	// SnapshotBlocks counts blocks restored from the snapshot.
	SnapshotBlocks int
	// WALBlocks counts block records applied during WAL replay (both
	// generations, duplicates of the snapshot excluded).
	WALBlocks int
	// WALBytes is the intact record prefix replayed across both WAL
	// generations.
	WALBytes int
	// TornTail reports that wal.log ended in an incomplete or corrupt
	// record; TornBytes is the discarded suffix length. Torn tails only
	// ever hold unacknowledged data.
	TornTail  bool
	TornBytes int
	// Duration is the wall time spent reading the snapshot and
	// replaying both WAL generations (normalization excluded).
	Duration time.Duration
}

// OpenFileBackend opens (creating if needed) the data directory and
// its WAL. Call Recover next; journal calls before Recover fail.
func OpenFileBackend(dir string, opts ...BackendOption) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: creating data dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: opening WAL: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: statting WAL: %w", err)
	}
	fb := &FileBackend{
		dir: dir, f: f,
		goodOff: info.Size(), syncedOff: info.Size(),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, o := range opts {
		o(fb)
	}
	if err := fb.policy.Validate(); err != nil {
		f.Close()
		return nil, err
	}
	go fb.committer()
	return fb, nil
}

// Dir returns the backend's data directory.
func (fb *FileBackend) Dir() string { return fb.dir }

// Recover rebuilds the node state recorded so far: snapshot first,
// then WAL replay (torn tails tolerated). On a fresh backend it returns
// an empty state. Call once, before attaching the backend as journal
// and before the node sees traffic. It then compacts immediately: the
// recovered state becomes a fresh snapshot and the WAL restarts empty,
// so a crash loop cannot grow an unbounded replay tail.
func (fb *FileBackend) Recover(opts RecoverOptions) (*NodeState, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed {
		return nil, ErrBackendClosed
	}
	if fb.recovered {
		return nil, errors.New("ledger: backend already recovered")
	}
	// An interrupted compaction never committed its snapshot.
	_ = os.Remove(filepath.Join(fb.dir, snapshotTmpName))

	// One verification pool serves the snapshot and both WAL
	// generations; decode and structural checks stay sequential, only
	// the per-block re-seal + signature verification fans out (see
	// recoverVerifier), so reports and errors match the serial path
	// byte for byte.
	start := time.Now()
	pool := par.NewPool(opts.Workers)
	defer pool.Close()

	st := NewNodeState(opts.Owner, opts.TrustCap)
	sf, err := os.Open(filepath.Join(fb.dir, snapshotFileName))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh data dir.
	case err != nil:
		return nil, fmt.Errorf("ledger: reading snapshot: %w", err)
	default:
		info, err := sf.Stat()
		if err != nil {
			sf.Close()
			return nil, fmt.Errorf("ledger: statting snapshot: %w", err)
		}
		st, err = readSnapshot(sf, info.Size(), opts, pool)
		sf.Close()
		if err != nil {
			return nil, err
		}
	}
	report := RecoveryReport{SnapshotBlocks: st.Store.Len()}
	// The trust cap must be in force before replay so FIFO evictions
	// replay exactly as they happened live. A torn tail is tolerated
	// only in wal.log — the generation a crash can tear mid-write;
	// wal.old was synced and repaired before its rotation rename, so a
	// torn record there is corruption that would silently drop every
	// acknowledged record after it.
	for _, gen := range []struct {
		name      string
		allowTorn bool
	}{{walOldFileName, false}, {walFileName, true}} {
		buf, err := os.ReadFile(filepath.Join(fb.dir, gen.name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("ledger: reading %s: %w", gen.name, err)
		}
		stats, err := replayWAL(st, buf, opts, gen.allowTorn, pool)
		if err != nil {
			return nil, fmt.Errorf("ledger: replaying %s: %w", gen.name, err)
		}
		report.WALBlocks += stats.blocks
		report.WALBytes += stats.valid
		if stats.torn {
			report.TornTail = true
			report.TornBytes = len(buf) - stats.valid
		}
	}
	report.Duration = time.Since(start)
	fb.report = report
	fb.recovered = true
	// Normalize on disk: recovered state → fresh snapshot, empty WAL,
	// no wal.old. Done under mu — nothing else can log yet.
	if err := fb.writeSnapshotFile(st); err != nil {
		return nil, err
	}
	if err := fb.resetWALLocked(); err != nil {
		return nil, err
	}
	_ = os.Remove(filepath.Join(fb.dir, walOldFileName))
	return st, nil
}

// writeSnapshotFile writes st to snapshot.tmp, fsyncs, and commits it
// by rename. The caller must exclude concurrent snapshot writers —
// either by holding fb.mu (Recover) or by owning the compacting flag
// (Compact); the write itself never touches the live WAL handle.
func (fb *FileBackend) writeSnapshotFile(st *NodeState) error {
	tmp := filepath.Join(fb.dir, snapshotTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating snapshot: %w", err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ledger: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(fb.dir, snapshotFileName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ledger: committing snapshot: %w", err)
	}
	fb.syncDir()
	return nil
}

// resetWALLocked truncates wal.log to empty and resets the pending
// count. Caller holds fb.mu.
func (fb *FileBackend) resetWALLocked() error {
	if err := fb.f.Truncate(0); err != nil {
		return fmt.Errorf("ledger: truncating WAL: %w", err)
	}
	fb.pending = 0
	fb.goodOff = 0
	fb.syncedOff = 0
	fb.windowBlocks = 0
	fb.dirty = false
	return nil
}

// syncDir fsyncs the data directory so renames and truncations are
// durable. Best-effort: some filesystems reject directory fsync.
func (fb *FileBackend) syncDir() {
	if d, err := os.Open(fb.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// repairLocked truncates a poisoned tail — the partial frame a failed
// write may have left past goodOff — back to the last intact record
// boundary. Until it succeeds no further record may be appended: a
// record behind garbage is unreachable to replay, and for a block
// record that would break the write-ahead guarantee (fsync-acknowledged
// yet lost on recovery). Caller holds fb.mu.
func (fb *FileBackend) repairLocked() error {
	if !fb.dirty {
		return nil
	}
	if err := fb.f.Truncate(fb.goodOff); err != nil {
		return fmt.Errorf("ledger: truncating partial WAL record: %w", err)
	}
	fb.dirty = false
	return nil
}

// logLocked frames and writes one record, repairing any poisoned tail
// first. Caller holds fb.mu.
func (fb *FileBackend) logLocked(kind byte, payload []byte) error {
	if fb.closed {
		return ErrBackendClosed
	}
	if err := fb.repairLocked(); err != nil {
		return err
	}
	fb.scratch = appendWALRecord(fb.scratch[:0], kind, payload)
	if _, err := fb.f.Write(fb.scratch); err != nil {
		// os.File.Write can fail after writing some bytes (ENOSPC, I/O
		// error): everything past goodOff is garbage until repaired.
		fb.dirty = true
		return fmt.Errorf("ledger: writing WAL record: %w", err)
	}
	fb.goodOff += int64(len(fb.scratch))
	return nil
}

// LogBlock stages a block record into the current commit window.
// Under SyncAlways (the default) it blocks until the window's fsync
// returns — write-ahead, the block is durable before Store.Append
// publishes it — while concurrent callers share that fsync. Under
// SyncBatch/SyncInterval it returns once staged; Commit or the
// committer's ticker acknowledges the window later. An error here
// fails the append.
func (fb *FileBackend) LogBlock(b *block.Block) error {
	fb.mu.Lock()
	if err := fb.logLocked(walKindBlock, block.Encode(b)); err != nil {
		fb.mu.Unlock()
		return err
	}
	fb.pending++
	fb.windowBlocks++
	if !fb.policy.PerBlock() {
		fb.mu.Unlock()
		return nil
	}
	// The committer fsyncs under fb.mu, so callers that stage while a
	// flush is in flight join the next window — group commit without
	// ever acknowledging before durability.
	w := waiterPool.Get().(chan error)
	fb.waiters = append(fb.waiters, w)
	fb.mu.Unlock()
	fb.kickCommitter()
	err := <-w
	waiterPool.Put(w)
	return err
}

// LogTrust writes a trust-store record (no fsync; see the package
// discipline above). Errors are additionally kept sticky for Sync.
func (fb *FileBackend) LogTrust(h *block.Header, inserted int64) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.pscratch = appendWALTrust(fb.pscratch[:0], inserted, h)
	err := fb.logLocked(walKindTrust, fb.pscratch)
	if err != nil && fb.deferred == nil && !errors.Is(err, ErrBackendClosed) {
		fb.deferred = err
	}
	return err
}

// LogDigest writes a digest-cache record (no fsync). Errors are
// additionally kept sticky for Sync.
func (fb *FileBackend) LogDigest(from identity.NodeID, d digest.Digest) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.pscratch = appendWALDigest(fb.pscratch[:0], from, d)
	err := fb.logLocked(walKindDigest, fb.pscratch)
	if err != nil && fb.deferred == nil && !errors.Is(err, ErrBackendClosed) {
		fb.deferred = err
	}
	return err
}

// LogForget writes a digest-cache removal record (no fsync). Errors
// are additionally kept sticky for Sync.
func (fb *FileBackend) LogForget(from identity.NodeID) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var node [4]byte
	binary.LittleEndian.PutUint32(node[:], uint32(from))
	err := fb.logLocked(walKindForget, node[:])
	if err != nil && fb.deferred == nil && !errors.Is(err, ErrBackendClosed) {
		fb.deferred = err
	}
	return err
}

// PendingBlocks reports block records in the current WAL generation.
func (fb *FileBackend) PendingBlocks() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.pending
}

// RecoveryReport returns what the last Recover read from disk; the
// zero report before Recover has run.
func (fb *FileBackend) RecoveryReport() RecoveryReport {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.report
}

// Compact rotates the WAL and folds everything into a fresh snapshot:
//
//  1. under mu: fsync wal.log, rename it to wal.old, start an empty
//     generation (pending = 0);
//  2. outside mu: gather the current state and commit it as the new
//     snapshot (tmp + rename);
//  3. delete wal.old.
//
// Logging continues into the new generation throughout. Records
// gathered into the snapshot AND logged to the new generation replay
// idempotently; a crash at any step recovers (wal.old replays between
// snapshot and wal.log; snapshot.tmp is discarded). Concurrent Compact
// calls coalesce: the later call returns nil without compacting.
func (fb *FileBackend) Compact(gather func() (*NodeState, error)) error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return ErrBackendClosed
	}
	if fb.compacting {
		fb.mu.Unlock()
		return nil
	}
	fb.compacting = true
	if err := fb.rotateLocked(); err != nil {
		fb.compacting = false
		fb.mu.Unlock()
		return err
	}
	fb.mu.Unlock()

	finish := func(err error) error {
		fb.mu.Lock()
		fb.compacting = false
		fb.mu.Unlock()
		return err
	}
	st, err := gather()
	if err != nil {
		// The rotation stands: wal.old still replays on recovery.
		return finish(fmt.Errorf("ledger: gathering state for compaction: %w", err))
	}
	if err := fb.writeSnapshotFile(st); err != nil {
		return finish(err)
	}
	if err := os.Remove(filepath.Join(fb.dir, walOldFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return finish(fmt.Errorf("ledger: removing rotated WAL: %w", err))
	}
	fb.syncDir()
	return finish(nil)
}

// rotateLocked closes the current WAL generation as wal.old and opens
// a fresh wal.log. The generation is repaired before the rename, so
// wal.old never carries a partial frame — which is what entitles
// recovery to treat a torn wal.old as corruption rather than a crash
// artifact. Caller holds fb.mu with compacting set.
func (fb *FileBackend) rotateLocked() error {
	// Closing the commit window first acknowledges (or fails) every
	// staged record and blocked caller before the generation is sealed
	// as wal.old.
	if err := fb.commitLocked(); err != nil {
		return fmt.Errorf("ledger: syncing WAL for rotation: %w", err)
	}
	if err := fb.f.Close(); err != nil {
		return fmt.Errorf("ledger: closing WAL for rotation: %w", err)
	}
	walPath := filepath.Join(fb.dir, walFileName)
	if err := os.Rename(walPath, filepath.Join(fb.dir, walOldFileName)); err != nil {
		return fmt.Errorf("ledger: rotating WAL: %w", err)
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: opening new WAL generation: %w", err)
	}
	fb.f = f
	fb.pending = 0
	fb.goodOff = 0
	fb.syncedOff = 0
	fb.windowBlocks = 0
	fb.dirty = false
	fb.syncDir()
	return nil
}

// Sync closes the current commit window (fsyncing anything staged)
// and surfaces any sticky trust/digest journal error (clearing it).
func (fb *FileBackend) Sync() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed {
		return ErrBackendClosed
	}
	cerr := fb.commitLocked()
	err := fb.deferred
	fb.deferred = nil
	if err == nil {
		err = cerr
	}
	return err
}

// Close commits any open window, closes the WAL, and retires the
// committer goroutine. Further calls return ErrBackendClosed.
func (fb *FileBackend) Close() error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return ErrBackendClosed
	}
	err := fb.commitLocked()
	fb.closed = true
	if cerr := fb.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fb.deferred
	}
	fb.deferred = nil
	fb.mu.Unlock()
	// The committer may be blocked acquiring fb.mu, so stop it only
	// after releasing; closed is set, so a late wakeup is a no-op.
	close(fb.stop)
	<-fb.done
	if err != nil {
		return fmt.Errorf("ledger: closing backend: %w", err)
	}
	return nil
}
