package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// ErrClosed reports an operation on a closed Host.
var ErrClosed = errors.New("cluster: host closed")

// Config assembles a single-node Host. Every process of one cluster
// must share Nodes, Seed, Gamma and Difficulty — the planned topology,
// identities and consensus parameters all derive from them.
type Config struct {
	// ID is this process's planned identity (serve mode). Ignored when
	// Join is set — a dynamic joiner's ID comes out of the placement
	// rule.
	ID identity.NodeID
	// Join marks this process a dynamic joiner: it discovers the
	// cluster via JoinAddr, re-anchors to the newest live member, and
	// announces itself to everyone.
	Join bool
	// JoinAddr is a running member's advertised address. Required in
	// Join mode; optional in serve mode, where it bootstraps the peer
	// directory (the first serving process of a cluster leaves it
	// empty).
	JoinAddr string
	// Nodes is the planned cluster size.
	Nodes int
	// Seed anchors placement and identities.
	Seed int64
	// Gamma is the PoP consensus threshold γ.
	Gamma int
	// Difficulty is the proof-of-work level ρ in bits.
	Difficulty uint8
	// Listen is the TCP bind address (default "127.0.0.1:0").
	Listen string
	// Advertise overrides the address announced to peers (NAT-style
	// rewriting, ":0" binds).
	Advertise string
	// RequestTimeout is τ for PoP requests and the acknowledgement
	// deadline fallback (default 2s).
	RequestTimeout time.Duration
	// Retry bounds announcement and PoP re-transmission.
	Retry faults.RetryPolicy
	// Plan, when active, wraps the transport in seeded fault injection.
	Plan faults.Plan
	// Observer, when non-nil, receives the node's event stream.
	Observer events.Observer
	// DataDir, when set, makes the ledger durable: a file-backed
	// WAL + snapshot backend (ledger.FileBackend) opens there, the
	// node recovers its whole prior state (S_i, H_i, A_i) before
	// serving, every sealed block fsyncs before it is acknowledged,
	// and the WAL compacts into a snapshot every CompactEvery blocks.
	// Empty = in-memory only (the no-op backend).
	DataDir string
	// TrustCap bounds H_i to that many headers (FIFO eviction;
	// 0 = unbounded). With DataDir set the cap is persisted in the
	// snapshot and survives restarts even if the flag is dropped.
	TrustCap int
	// CompactEvery is the WAL compaction threshold in block records
	// (default 256; only meaningful with DataDir).
	CompactEvery int
	// Sync is the WAL commit-window policy (only meaningful with
	// DataDir). The zero value is ledger.SyncAlways — fsync per block.
	// Under ledger.SyncBatch the host commits the window once per
	// Flush, before any digest is announced; ledger.SyncInterval(d)
	// bounds staleness to d.
	Sync ledger.SyncPolicy
}

// member is one directory entry.
type member struct {
	live   bool
	addr   string
	anchor identity.NodeID // wire.NoAnchor for planned members
}

// Host runs one 2LDAG Device in this process as part of a cross-host
// cluster: the device behind its own TCP listener, a membership
// directory maintained via Hello/PeerList/Leave frames, and the
// slot/seal/flush/audit verbs a distributed driver needs. Verbs are
// safe for the documented Runtime concurrency: audits may run
// concurrently, membership changes and submissions must not race each
// other.
type Host struct {
	*Device
	cfg    Config
	id     identity.NodeID
	anchor identity.NodeID
	pos    topology.Point
	topo   *topology.Graph
	ring   *identity.Ring
	tn     *transport.TCPNode
	slot   atomic.Uint32

	mu      sync.Mutex
	members map[identity.NodeID]*member
	ids     []identity.NodeID // known devices in join order

	ctx    context.Context
	cancel context.CancelFunc
	// Verb lifecycle: begin registers under verbMu.RLock, so Close can
	// take the write lock to flip closed and know no wg.Add can race
	// its wg.Wait (a bare atomic double-check would let an Add from a
	// zero counter run concurrently with Wait, which WaitGroup forbids).
	verbMu  sync.RWMutex
	wg      sync.WaitGroup // in-flight verbs, drained by Close
	closeMu sync.Mutex
	closed  atomic.Bool
}

// Start builds the host: it derives the shared world from (Nodes,
// Seed), discovers the cluster through JoinAddr when given, computes
// its placement (planned or dynamic), starts listening and announces
// itself to every known live member.
func Start(cfg Config) (*Host, error) {
	if cfg.Nodes <= 0 {
		return nil, errors.New("cluster: Config.Nodes must be positive")
	}
	if cfg.Join && cfg.JoinAddr == "" {
		return nil, errors.New("cluster: Join mode requires JoinAddr")
	}
	if !cfg.Join && int(cfg.ID) >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: planned ID %v out of range for %d nodes", cfg.ID, cfg.Nodes)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if err := cfg.Sync.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.DataDir == "" && !cfg.Sync.PerBlock() {
		return nil, fmt.Errorf("cluster: sync policy %v requires DataDir", cfg.Sync)
	}

	topo, err := topology.Deployment(cfg.Nodes, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	h := &Host{
		cfg:     cfg,
		id:      cfg.ID,
		anchor:  wire.NoAnchor,
		topo:    topo,
		ring:    identity.NewRing(),
		members: make(map[identity.NodeID]*member, cfg.Nodes),
	}
	if cfg.Join {
		// No identity until placement: park on the bootstrap sentinel so
		// directory merges can't mistake a real member's entry for our
		// own.
		h.id = wire.BootstrapID
	}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	for _, id := range topo.Nodes() {
		kp := identity.Deterministic(id, cfg.Seed)
		if err := h.ring.Register(kp.ID, kp.Public); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		h.members[id] = &member{anchor: wire.NoAnchor}
		h.ids = append(h.ids, id)
	}

	// Discovery: one raw-dial exchange against the bootstrap member
	// yields the current directory — addresses, liveness, and every
	// dynamic join to replay into the planned topology.
	if cfg.JoinAddr != "" {
		bctx, bcancel := context.WithTimeout(h.ctx, cfg.RequestTimeout)
		hello := wire.NewHello(wire.BootstrapID, 0, wire.HelloInfo{Anchor: wire.NoAnchor}, 1, 1)
		reply, err := transport.Bootstrap(bctx, cfg.JoinAddr, hello)
		bcancel()
		if err != nil {
			return nil, fmt.Errorf("cluster: discovering via %s: %w", cfg.JoinAddr, err)
		}
		entries, err := reply.DecodePeerListPayload()
		if err != nil {
			return nil, fmt.Errorf("cluster: bad directory from %s: %w", cfg.JoinAddr, err)
		}
		h.merge(entries)
	}

	// Placement: planned members take their generated position; a
	// joiner runs the shared placement rule against the replayed
	// topology, exactly as the in-process drivers do.
	if cfg.Join {
		h.mu.Lock()
		pl, err := PlanJoin(h.topo, h.ids, func(id identity.NodeID) bool {
			m, ok := h.members[id]
			return ok && m.live
		})
		if err == nil {
			err = pl.Apply(h.topo)
		}
		if err != nil {
			h.mu.Unlock()
			return nil, err
		}
		h.id, h.anchor, h.pos = pl.ID, pl.Anchor, pl.Pos
		kp := identity.Deterministic(h.id, cfg.Seed)
		if rerr := h.ring.Register(kp.ID, kp.Public); rerr != nil {
			h.mu.Unlock()
			return nil, fmt.Errorf("cluster: %w", rerr)
		}
		h.members[h.id] = &member{anchor: h.anchor}
		h.ids = append(h.ids, h.id)
		h.mu.Unlock()
	} else {
		h.pos, _ = topo.Position(h.id)
	}

	err = h.startDevice()
	if err == nil {
		if err = h.announceSelf(); err != nil {
			_ = h.Device.Close()
		}
	}
	if err != nil {
		h.cancel()
		return nil, err
	}
	return h, nil
}

// startDevice opens the TCP listener and brings the device up on it.
func (h *Host) startDevice() error {
	var opts []transport.TCPOption
	if h.cfg.Advertise != "" {
		opts = append(opts, transport.WithAdvertiseAddr(h.cfg.Advertise))
	}
	tn, err := transport.ListenTCP(h.id, h.cfg.Listen, nil, opts...)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	h.tn = tn
	h.mu.Lock()
	for id, m := range h.members {
		if id != h.id && m.addr != "" {
			tn.SetPeer(id, m.addr)
		}
	}
	if m := h.members[h.id]; m != nil {
		m.live = true
		m.addr = tn.AdvertiseAddr()
	}
	h.mu.Unlock()

	params := block.DefaultParams()
	params.Difficulty = pow.Difficulty(h.cfg.Difficulty)
	dev, err := NewDevice(DeviceConfig{
		Key:            identity.Deterministic(h.id, h.cfg.Seed),
		Params:         params,
		Topo:           h.topo,
		Ring:           h.ring,
		Transport:      tn,
		Clock:          h.slot.Load,
		Live:           h.isLive,
		Gamma:          h.cfg.Gamma,
		RequestTimeout: h.cfg.RequestTimeout,
		Retry:          h.cfg.Retry,
		Plan:           h.cfg.Plan,
		Observer:       h.cfg.Observer,
		Tracker:        NewAckTracker(),
		Control:        h.onControl,
		AnnounceAcks:   true,
		DataDir:        h.cfg.DataDir,
		TrustCap:       h.cfg.TrustCap,
		CompactEvery:   h.cfg.CompactEvery,
		Sync:           h.cfg.Sync,
	})
	if err != nil {
		return err
	}
	h.Device = dev
	tn.SetBootstrapHandler(h.onBootstrap)
	return nil
}

// announceSelf fans a Hello out to every known live member, merging
// each PeerList reply. Hellos ride the (possibly fault-wrapped)
// transport, so each exchange retries under the configured policy.
func (h *Host) announceSelf() error {
	h.mu.Lock()
	peers := make([]identity.NodeID, 0, len(h.members))
	for id, m := range h.members {
		if id != h.id && m.live && m.addr != "" {
			peers = append(peers, id)
		}
	}
	h.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, peer := range peers {
		if err := h.helloExchange(peer); err != nil {
			return fmt.Errorf("cluster: hello to %v: %w", peer, err)
		}
	}
	return nil
}

// helloExchange runs one Hello → PeerList round trip with bounded
// retry (announcement frames can be dropped by an active fault plan).
func (h *Host) helloExchange(peer identity.NodeID) error {
	kp := identity.Deterministic(h.id, h.cfg.Seed)
	info := wire.HelloInfo{
		Addr:   h.tn.AdvertiseAddr(),
		PubKey: kp.Public,
		Anchor: h.anchor,
		X:      h.pos.X,
		Y:      h.pos.Y,
	}
	attempts := h.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if wait := h.cfg.Retry.Backoff(attempt, uint64(peer)); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-h.ctx.Done():
					timer.Stop()
					return h.ctx.Err()
				case <-timer.C:
				}
			}
		}
		var resp *wire.Message
		resp, err = h.node.Call(h.ctx, peer, func(corr, nonce uint64) *wire.Message {
			return wire.NewHello(h.id, peer, info, corr, nonce)
		})
		if err != nil {
			continue
		}
		var entries []wire.PeerEntry
		entries, err = resp.DecodePeerListPayload()
		if err != nil {
			continue
		}
		h.merge(entries)
		return nil
	}
	return err
}

// merge folds a directory snapshot into local state: unknown dynamic
// joiners are replayed into the topology and key ring (identities are
// deterministic, so the key derives from the seed rather than trusting
// the carried bytes), and addresses and liveness are adopted.
func (h *Host) merge(entries []wire.PeerEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range entries {
		if e.ID == h.id {
			continue
		}
		m, known := h.members[e.ID]
		if !known {
			if e.Anchor == wire.NoAnchor {
				continue // not planned, not a join record: ignore
			}
			pl := Placement{ID: e.ID, Anchor: e.Anchor, Pos: topology.Point{X: e.X, Y: e.Y}}
			if err := pl.Apply(h.topo); err != nil {
				continue
			}
			kp := identity.Deterministic(e.ID, h.cfg.Seed)
			_ = h.ring.Register(kp.ID, kp.Public)
			m = &member{anchor: e.Anchor}
			h.members[e.ID] = m
			h.ids = append(h.ids, e.ID)
		}
		m.live = e.Live
		if e.Addr != "" {
			m.addr = e.Addr
			if h.tn != nil {
				h.tn.SetPeer(e.ID, e.Addr)
			}
		}
	}
}

// snapshot renders the directory for a PeerList, in join order.
// Callers must not hold h.mu.
func (h *Host) snapshot() []wire.PeerEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	entries := make([]wire.PeerEntry, 0, len(h.ids))
	for _, id := range h.ids {
		m := h.members[id]
		p, _ := h.topo.Position(id)
		entries = append(entries, wire.PeerEntry{
			ID: id, Live: m.live, Anchor: m.anchor,
			X: p.X, Y: p.Y, Addr: m.addr,
		})
	}
	return entries
}

// onBootstrap answers a joiner's anonymous discovery query with the
// directory (reply written straight back on the joiner's connection —
// it has no listener registered anywhere yet).
func (h *Host) onBootstrap(msg *wire.Message) *wire.Message {
	if msg.Kind != wire.KindHello {
		return nil
	}
	return wire.NewPeerList(msg, h.snapshot())
}

// onControl serves membership-plane frames from the node's dispatch
// loop.
func (h *Host) onControl(env transport.Envelope) {
	msg := env.Msg
	switch msg.Kind {
	case wire.KindHello:
		info, err := msg.DecodeHelloPayload()
		if err != nil {
			return
		}
		h.mu.Lock()
		from := msg.From
		m, known := h.members[from]
		if !known {
			if info.Anchor == wire.NoAnchor {
				h.mu.Unlock()
				return // claims planned membership in a different world
			}
			pl := Placement{ID: from, Anchor: info.Anchor, Pos: topology.Point{X: info.X, Y: info.Y}}
			if err := pl.Apply(h.topo); err != nil {
				h.mu.Unlock()
				return
			}
			kp := identity.Deterministic(from, h.cfg.Seed)
			_ = h.ring.Register(kp.ID, kp.Public)
			m = &member{anchor: info.Anchor}
			h.members[from] = m
			h.ids = append(h.ids, from)
		}
		m.live = true
		if info.Addr != "" {
			m.addr = info.Addr
			h.tn.SetPeer(from, info.Addr)
		}
		h.mu.Unlock()
		// A node re-admitting itself clears any open circuit.
		h.health.ReportSuccess(from)
		_ = h.node.Send(h.ctx, from, wire.NewPeerList(msg, h.snapshot()))
	case wire.KindPeerList:
		// Corr≠0 replies route to the RPC pending map; only pushes land
		// here.
		if entries, err := msg.DecodePeerListPayload(); err == nil {
			h.merge(entries)
		}
	case wire.KindLeave:
		h.MarkDead(msg.From)
	}
}

// Addr returns the address peers are told to dial.
func (h *Host) Addr() string { return h.tn.AdvertiseAddr() }

// Topology exposes the host's view of the radio graph.
func (h *Host) Topology() *topology.Graph { return h.topo }

// SetSlot pins logical time; blocks sealed afterwards carry it.
func (h *Host) SetSlot(s uint32) { h.slot.Store(s) }

// Slot returns the current logical time.
func (h *Host) Slot() uint32 { return h.slot.Load() }

// Live lists the members this host believes are running, ascending.
func (h *Host) Live() []identity.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]identity.NodeID, 0, len(h.members))
	for id, m := range h.members {
		if m.live {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkDead records a member as stopped: announcements no longer await
// its acknowledgement, audits route around it, and its directory entry
// drops so sends fail fast — the distributed analog of the in-process
// drivers' Silence.
func (h *Host) MarkDead(id identity.NodeID) {
	h.mu.Lock()
	if m, ok := h.members[id]; ok {
		m.live = false
	}
	h.mu.Unlock()
	h.health.Suspect(id)
	h.tn.RemovePeer(id)
}

// isLive reports whether the directory believes id is running.
func (h *Host) isLive(id identity.NodeID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.members[id]
	return ok && m.live
}

// begin registers an in-flight verb; Close drains them.
func (h *Host) begin() error {
	h.verbMu.RLock()
	defer h.verbMu.RUnlock()
	if h.closed.Load() {
		return ErrClosed
	}
	h.wg.Add(1)
	return nil
}

// opCtx bounds a verb: the caller's deadline rules when present
// (falling back to the request timeout), and closing the host cancels
// the verb either way.
func (h *Host) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); ok {
		ctx, cancel = context.WithCancel(ctx)
	} else {
		ctx, cancel = context.WithTimeout(ctx, h.cfg.RequestTimeout)
	}
	stop := context.AfterFunc(h.ctx, cancel)
	return ctx, func() { stop(); cancel() }
}

// Seal mines and signs this node's next block from data without
// announcing it, returning the block ref and the digest to flush. The
// seal/flush split lets a distributed driver seal a whole slot across
// all processes before any announcement flows — the same phase order
// the in-process SubmitBatch enforces, which sealed-header equivalence
// depends on (headers embed the A_i snapshot at seal time).
func (h *Host) Seal(data []byte) (block.Ref, digest.Digest, error) {
	if err := h.begin(); err != nil {
		return block.Ref{}, digest.Digest{}, err
	}
	defer h.wg.Done()
	return h.Device.Seal(data)
}

// Compact forces a WAL compaction now (no-op without a data dir) —
// exposed so tests and operators can bound the replay tail on demand.
func (h *Host) Compact() error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	return h.Device.Compact()
}

// Flush announces previously sealed digests (in seal order) to every
// radio neighbor and blocks until each live neighbor acknowledged
// every digest — event-driven via wire-level DigestAcks, with the
// configured per-digest retry.
func (h *Host) Flush(ctx context.Context, ds []digest.Digest) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.wg.Done()
	if len(ds) == 0 {
		return nil
	}
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	var acks Acks
	if err := h.Announce(actx, ds, &acks); err != nil {
		return err
	}
	return acks.Await(actx)
}

// Submit seals and flushes one block — the single-shot verb.
func (h *Host) Submit(ctx context.Context, data []byte) (block.Ref, error) {
	ref, d, err := h.Seal(data)
	if err != nil {
		return block.Ref{}, err
	}
	if err := h.Flush(ctx, []digest.Digest{d}); err != nil {
		return ref, err
	}
	return ref, nil
}

// Audit runs PoP from this node against ref.
func (h *Host) Audit(ctx context.Context, ref block.Ref) (*core.Result, error) {
	if err := h.begin(); err != nil {
		return nil, err
	}
	defer h.wg.Done()
	actx, cancel := h.opCtx(ctx)
	defer cancel()
	return h.Device.Audit(actx, ref)
}

// Close shuts the host down gracefully, in strict order: stop
// accepting verbs, cancel and drain every in-flight one (their retry
// loops are bounded by the policy cap and their contexts are dead),
// commit the durability backend — every accepted block is on disk
// before any peer learns we are leaving — then broadcast Leave so peers
// mark this node dead immediately instead of waiting for their health
// trackers, and finally close the device: the node with its RPC layer,
// transport and listener, then the backend.
func (h *Host) Close() error {
	h.closeMu.Lock()
	defer h.closeMu.Unlock()
	if h.closed.Load() {
		return nil
	}
	h.verbMu.Lock()
	h.closed.Store(true)
	h.verbMu.Unlock()
	h.cancel()
	h.wg.Wait()
	var syncErr error
	if h.backend != nil {
		syncErr = h.backend.Sync()
	}
	lctx, lcancel := context.WithTimeout(context.Background(), h.cfg.RequestTimeout)
	for _, peer := range h.Live() {
		if peer == h.id {
			continue
		}
		_ = h.node.Send(lctx, peer, wire.NewLeave(h.id, peer, h.node.NextNonce()))
	}
	lcancel()
	if err := h.Device.Close(); err != nil {
		return err
	}
	return syncErr
}
