package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/node"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
)

// DefaultCompactEvery is the WAL compaction threshold (in block
// records) when DeviceConfig.CompactEvery is zero.
const DefaultCompactEvery = 256

// DeviceConfig assembles one Device. The facade driver fills one
// template per cluster and varies only Key, Transport and DataDir.
type DeviceConfig struct {
	// Key is the device's signing identity.
	Key identity.KeyPair
	// Params are the shared consensus constants.
	Params block.Params
	// Topo is the radio graph the device announces over.
	Topo *topology.Graph
	// Ring is the shared public-key registry.
	Ring *identity.Ring
	// Transport carries the device's traffic. Ownership passes to the
	// device: Close closes it, and so does a failed NewDevice.
	Transport transport.Transport
	// Clock is the logical slot stamped into sealed blocks and read by
	// the fault plan.
	Clock func() uint32
	// Live reports whether a neighbor still runs; announcements await
	// acknowledgements from live neighbors only.
	Live func(identity.NodeID) bool
	// Gamma is the PoP consensus threshold γ.
	Gamma int
	// RequestTimeout is τ for PoP requests.
	RequestTimeout time.Duration
	// Retry bounds announcement and PoP re-transmission.
	Retry faults.RetryPolicy
	// Plan, when active, wraps the transport in seeded fault injection.
	Plan faults.Plan
	// Observer, when non-nil, receives the device's event stream; if it
	// also implements ledger.CommitObserver it sees WAL commit windows.
	Observer events.Observer
	// Tracker resolves this device's announcements to acknowledgements.
	// Devices of one in-process cluster share a tracker.
	Tracker *AckTracker
	// Control receives membership-plane frames (see node.Config).
	Control func(transport.Envelope)
	// AnnounceAcks answers deliveries with wire-level DigestAcks (see
	// node.Config); cross-process devices need it.
	AnnounceAcks bool
	// DataDir, when set, holds the device's WAL + snapshot backend;
	// the device recovers its prior state from it before serving.
	DataDir string
	// TrustCap bounds H_i (0 = unbounded).
	TrustCap int
	// CompactEvery is the WAL compaction threshold in block records
	// (default DefaultCompactEvery).
	CompactEvery int
	// Sync is the WAL commit-window policy.
	Sync ledger.SyncPolicy
}

// Device is one 2LDAG IoT device: the node runtime that seals S_i,
// keeps its neighbors' digests A_i, acknowledges announcements and
// answers PoP requests, together with its fault-wrapped transport,
// its optional durable backend, WAL compaction, the batched-sync
// commit point and the acknowledgement wait.
type Device struct {
	cfg     DeviceConfig
	node    *node.Node
	backend *ledger.FileBackend // nil without DataDir
	health  *faults.Health
	obs     events.Observer // cfg.Observer merged with cfg.Tracker
}

// NewDevice starts a device: it recovers the durable state from
// DataDir when set, then brings the node runtime up. The device
// serves responder traffic as soon as NewDevice returns.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	id := cfg.Key.ID
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = DefaultCompactEvery
	}
	// User observers run before the tracker: the tracker's ack is what
	// unblocks a waiting submitter, so ordering it last guarantees every
	// user observer has already seen a delivery by the time the
	// submitter returns.
	obs := events.Multi(cfg.Observer, cfg.Tracker)
	d := &Device{cfg: cfg, obs: obs, health: faults.NewHealth(id, 0, obs)}
	fail := func(err error) (*Device, error) {
		if d.backend != nil {
			_ = d.backend.Close()
		}
		_ = cfg.Transport.Close()
		return nil, err
	}
	if tn, ok := cfg.Transport.(*transport.TCPNode); ok {
		// TCP cannot report receiver-side backpressure to the sender;
		// surface each inbound inbox-full loss as a MessageDropped.
		tn.SetDropHandler(func(env transport.Envelope) {
			obs.OnMessageDropped(events.MessageDropped{
				From: env.From, To: id, Kind: uint8(env.Msg.Kind),
				Reason: events.DropBackpressure,
			})
		})
	}
	tr := cfg.Transport
	if cfg.Plan.Active() {
		tr = faults.Wrap(tr, cfg.Plan, cfg.Clock, obs)
	}

	// Durability: recover the whole prior state — snapshot, then WAL
	// replay with cryptographic re-verification against the ring —
	// before the node serves any traffic.
	var state *ledger.NodeState
	var backend ledger.Backend
	if cfg.DataDir != "" {
		bopts := []ledger.BackendOption{ledger.WithSyncPolicy(cfg.Sync)}
		if co, ok := cfg.Observer.(ledger.CommitObserver); ok {
			bopts = append(bopts, ledger.WithCommitObserver(co))
		}
		fb, err := ledger.OpenFileBackend(cfg.DataDir, bopts...)
		if err != nil {
			return fail(fmt.Errorf("cluster: node %v: %w", id, err))
		}
		d.backend, backend = fb, fb
		state, err = fb.Recover(ledger.RecoverOptions{
			Owner:    id,
			Params:   cfg.Params,
			Ring:     cfg.Ring,
			TrustCap: cfg.TrustCap,
		})
		if err != nil {
			return fail(fmt.Errorf("cluster: recovering node %v from %s: %w", id, cfg.DataDir, err))
		}
	}
	n, err := node.New(node.Config{
		Key:            cfg.Key,
		Params:         cfg.Params,
		Topo:           cfg.Topo,
		Ring:           cfg.Ring,
		Transport:      tr,
		Gamma:          cfg.Gamma,
		RequestTimeout: cfg.RequestTimeout,
		Retry:          cfg.Retry,
		Health:         d.health,
		Observer:       obs,
		Control:        cfg.Control,
		State:          state,
		TrustCap:       cfg.TrustCap,
		Backend:        backend,
		AnnounceAcks:   cfg.AnnounceAcks,
	})
	if err != nil {
		return fail(fmt.Errorf("cluster: starting node %v: %w", id, err))
	}
	n.SetClock(cfg.Clock)
	d.node = n
	return d, nil
}

// ID returns the device's identity.
func (d *Device) ID() identity.NodeID { return d.cfg.Key.ID }

// Seal mines and signs the device's next block from data and appends
// it to S_i without announcing it, returning the block ref and the
// digest to announce. Once CompactEvery block records are pending, the
// WAL folds into a fresh snapshot, bounding wal.log growth and the
// recovery replay tail; concurrent compactions coalesce inside the
// backend.
func (d *Device) Seal(data []byte) (block.Ref, digest.Digest, error) {
	b, dg, err := d.node.GenerateLocal(data)
	if err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	if d.PendingBlocks() >= d.cfg.CompactEvery {
		// Safe to drop a failure: the WAL it would have folded still
		// replays on recovery, and the next seal tries again.
		_ = d.Compact()
	}
	return b.Header.Ref(), dg, nil
}

// Compact folds the WAL into a snapshot now (no-op without a data dir).
func (d *Device) Compact() error {
	if d.backend == nil {
		return nil
	}
	return d.backend.Compact(func() (*ledger.NodeState, error) {
		return d.node.Engine().State(), nil
	})
}

// PendingBlocks reports the block records in the WAL since the last
// compaction (0 without a data dir).
func (d *Device) PendingBlocks() int {
	if d.backend == nil {
		return 0
	}
	return d.backend.PendingBlocks()
}

// Announce sends sealed digests (in seal order) to every radio
// neighbor, one frame per neighbor, and adds one acknowledgement wait
// per digest to acks. ds must stay unmodified until acks resolve:
// retries resend from it. Under a batched sync policy it first
// commits the WAL window, so the blocks are durable before any
// neighbor learns their digests. SyncAlways already committed per
// block at seal time, and SyncInterval is decoupled from flushes.
func (d *Device) Announce(ctx context.Context, ds []digest.Digest, acks *Acks) error {
	if d.cfg.Sync.Batched() {
		if err := d.node.CommitJournal(); err != nil {
			return err
		}
	}
	live := d.liveNeighbors()
	for i, dg := range ds {
		acks.items = append(acks.items, pendingAck{dev: d, run: ds[i:], w: d.cfg.Tracker.Expect(dg, live)})
	}
	d.node.AnnounceBatch(ctx, ds)
	return nil
}

// liveNeighbors returns the device's radio neighbors that still run.
func (d *Device) liveNeighbors() []identity.NodeID {
	nbs := d.cfg.Topo.Neighbors(d.ID())
	out := nbs[:0]
	for _, nb := range nbs {
		if d.cfg.Live(nb) {
			out = append(out, nb)
		}
	}
	return out
}

// Audit runs PoP from this device against ref.
func (d *Device) Audit(ctx context.Context, ref block.Ref) (*core.Result, error) {
	return d.node.Audit(ctx, ref)
}

// Block fetches a sealed block from the device's own store. The block
// is shared store state: treat it as read-only.
func (d *Device) Block(ref block.Ref) (*block.Block, error) {
	if ref.Node != d.ID() {
		return nil, fmt.Errorf("cluster: block %v is not local to %v", ref, d.ID())
	}
	return d.node.Engine().Store().Get(ref.Seq)
}

// Latest returns the ref and digest of the device's newest sealed
// block. ok is false for an empty store — a fresh device, or one whose
// data dir held nothing.
func (d *Device) Latest() (ref block.Ref, dg digest.Digest, ok bool) {
	b := d.node.Engine().Store().Latest()
	if b == nil {
		return block.Ref{}, digest.Digest{}, false
	}
	return b.Header.Ref(), b.Header.Hash(), true
}

// RecoveryReport returns what startup recovery read from the data dir;
// ok is false without one. A true TornTail means the previous run's
// final, never-acknowledged WAL record was discarded — worth a log
// line, never an error.
func (d *Device) RecoveryReport() (ledger.RecoveryReport, bool) {
	if d.backend == nil {
		return ledger.RecoveryReport{}, false
	}
	return d.backend.RecoveryReport(), true
}

// StateDigest returns a canonical digest over the device's whole
// ledger state — the snapshot-v2 serialization of (S_i, H_i, A_i,
// trust cap) — for byte-identity checks across crash/recovery
// boundaries.
func (d *Device) StateDigest() (digest.Digest, error) {
	var buf bytes.Buffer
	if err := d.node.Engine().State().WriteSnapshot(&buf); err != nil {
		return digest.Digest{}, err
	}
	return digest.Sum(buf.Bytes()), nil
}

// Close stops the node runtime — its RPC layer, transport and
// listener — and then commits and closes the backend, so no journal
// write from an in-flight frame can race the backend closing.
func (d *Device) Close() error {
	err := d.node.Close()
	if d.backend != nil {
		if berr := d.backend.Close(); berr != nil && err == nil {
			err = berr
		}
	}
	return err
}

// AckContext bounds an acknowledgement wait: the caller's deadline
// rules when present; otherwise timeout applies.
func AckContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// Acks collects announced digests whose neighbor acknowledgements are
// outstanding, across one or more devices. The zero value is empty and
// ready to use.
type Acks struct {
	items []pendingAck
}

// pendingAck is one digest's acknowledgement wait. run is the digest
// followed by every digest announced after it in the same flush.
type pendingAck struct {
	dev *Device
	run []digest.Digest
	w   *Waiter
}

// Await blocks until every live neighbor acknowledged every collected
// digest. A device with a retry policy re-sends each missing
// announcement, only to the neighbors still pending, after an
// exponential backoff; those waits run on one goroutine per digest so
// every retry clock runs at once. A resend carries the digest together
// with every newer digest of its flush, so whichever resend lands last
// still leaves the flush's newest digest in the neighbor's A_i.
// Without retry the waits run in line. On failure every outstanding
// wait is cancelled and the first error, in announcement order, is
// returned.
func (a *Acks) Await(ctx context.Context) error {
	errs := make([]error, len(a.items))
	var wg sync.WaitGroup
	for i := range a.items {
		p := &a.items[i]
		if !p.dev.cfg.Retry.Enabled() {
			errs[i] = p.await(ctx)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.await(ctx)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			a.Cancel()
			return err
		}
	}
	return nil
}

func (p *pendingAck) await(ctx context.Context) error {
	dev := p.dev
	return dev.cfg.Tracker.AwaitRetry(ctx, dev.ID(), p.run[0], p.w, dev.cfg.Retry, dev.obs,
		func(ctx context.Context, nb identity.NodeID) { dev.node.AnnounceTo(ctx, nb, p.run) })
}

// Cancel abandons every collected wait.
func (a *Acks) Cancel() {
	for _, p := range a.items {
		p.dev.cfg.Tracker.Cancel(p.run[0])
	}
}
