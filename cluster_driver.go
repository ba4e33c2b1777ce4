package twoldag

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/twoldag/twoldag/internal/cluster"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
)

// fabric abstracts the live driver's transport management so the
// cluster logic is identical over the in-memory network and TCP.
type fabric interface {
	// endpoint creates the transport for a (possibly joining) node.
	endpoint(id NodeID) (transport.Transport, error)
	// remove forgets a node after its transport closed.
	remove(id NodeID) error
	// close releases fabric-wide resources.
	close() error
}

// memFabric is the in-process message network.
type memFabric struct {
	net *transport.Network
}

func (f *memFabric) endpoint(id NodeID) (transport.Transport, error) { return f.net.Endpoint(id) }
func (f *memFabric) remove(id NodeID) error                          { return f.net.Remove(id) }
func (f *memFabric) close() error                                    { return f.net.Close() }

// tcpFabric runs each node on its own loopback TCP listener and keeps
// every directory up to date as nodes join.
type tcpFabric struct {
	mu    sync.Mutex
	nodes map[NodeID]*transport.TCPNode
}

func (f *tcpFabric) endpoint(id NodeID) (transport.Transport, error) {
	t, err := transport.ListenTCP(id, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.nodes[id]; dup {
		t.Close()
		return nil, fmt.Errorf("%w: %v", transport.ErrDuplicatePeer, id)
	}
	for peer, pt := range f.nodes {
		t.SetPeer(peer, pt.Addr())
		pt.SetPeer(id, t.Addr())
	}
	f.nodes[id] = t
	return t, nil
}

func (f *tcpFabric) remove(id NodeID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; !ok {
		return fmt.Errorf("%w: %v", transport.ErrUnknownPeer, id)
	}
	// The node closed its own transport (listener and connections);
	// peers' stale dial entries fail on use, like a dead radio.
	delete(f.nodes, id)
	return nil
}

func (f *tcpFabric) close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for id, t := range f.nodes {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
		delete(f.nodes, id)
	}
	return first
}

// Cluster is the live Runtime driver: one cluster.Device per IoT
// device, exchanging real wire messages over the in-memory fabric or
// TCP and acknowledging announcements through one shared tracker.
type Cluster struct {
	fab fabric
	// backends holds the running devices by ID; each owns its node
	// runtime and, with WithDataDir, its FileBackend under
	// dataDir/node-<id>.
	backends map[NodeID]*cluster.Device
	ids      []NodeID
	slot     atomic.Uint32
	seed     int64
	workers  int
	dataDir  string
	// dev is the per-device template: shared parameters, topology, key
	// ring, observers, the ack tracker and the durability policy.
	dev cluster.DeviceConfig
}

var _ Runtime = (*Cluster)(nil)

// newCluster builds and starts the live driver: keys, transports and
// one device per node of the resolved topology.
func newCluster(cfg *config, g *topology.Graph) (*Cluster, error) {
	c := &Cluster{
		backends: make(map[NodeID]*cluster.Device, g.Len()),
		ids:      g.Nodes(),
		seed:     cfg.seed,
		workers:  cfg.workers,
		dataDir:  cfg.dataDir,
	}
	c.dev = cluster.DeviceConfig{
		Params:         cfg.params,
		Topo:           g,
		Clock:          c.slot.Load,
		Live:           c.running,
		Gamma:          cfg.gamma,
		RequestTimeout: cfg.rto,
		Retry:          cfg.retry,
		Plan:           cfg.faultPlan,
		Observer:       events.Multi(cfg.observers...),
		Tracker:        cluster.NewAckTracker(),
		TrustCap:       cfg.trustCap,
		CompactEvery:   cfg.compactEvery,
		Sync:           cfg.syncPolicy,
	}
	switch cfg.transport {
	case TCP:
		c.fab = &tcpFabric{nodes: make(map[NodeID]*transport.TCPNode)}
	default:
		c.fab = &memFabric{net: transport.NewNetwork()}
	}
	var pairs []identity.KeyPair
	for _, id := range c.ids {
		pairs = append(pairs, identity.Deterministic(id, cfg.seed))
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		return nil, fmt.Errorf("twoldag: %w", err)
	}
	c.dev.Ring = ring
	for _, kp := range pairs {
		if err := c.startDevice(kp); err != nil {
			_ = c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startDevice creates the transport and device for one node.
func (c *Cluster) startDevice(kp identity.KeyPair) error {
	ep, err := c.fab.endpoint(kp.ID)
	if err != nil {
		return fmt.Errorf("twoldag: %w", err)
	}
	cfg := c.dev
	cfg.Key, cfg.Transport = kp, ep
	if c.dataDir != "" {
		cfg.DataDir = filepath.Join(c.dataDir, fmt.Sprintf("node-%d", kp.ID))
	}
	d, err := cluster.NewDevice(cfg)
	if err != nil {
		_ = c.fab.remove(kp.ID)
		return fmt.Errorf("twoldag: %w", err)
	}
	c.backends[kp.ID] = d
	return nil
}

// running reports whether id runs a device.
func (c *Cluster) running(id NodeID) bool {
	_, ok := c.backends[id]
	return ok
}

// Nodes implements Runtime.
func (c *Cluster) Nodes() []NodeID {
	return append([]NodeID(nil), c.ids...)
}

// Topology implements Runtime.
func (c *Cluster) Topology() *Topology { return c.dev.Topo }

// AdvanceSlot implements Runtime.
func (c *Cluster) AdvanceSlot() { c.slot.Add(1) }

// Slot implements Runtime.
func (c *Cluster) Slot() uint32 { return c.slot.Load() }

// Submit implements Runtime: seal, announce, and wait for every live
// neighbor's acknowledgement (event-driven — see cluster.AckTracker).
func (c *Cluster) Submit(ctx context.Context, id NodeID, data []byte) (Ref, error) {
	refs, err := c.SubmitBatch(ctx, []Submission{{Node: id, Data: data}})
	if len(refs) == 0 {
		return Ref{}, err
	}
	return refs[0], err
}

// SubmitBatch implements Runtime: all blocks are sealed first, then
// the announcements flush receiver-centrically — every sender
// coalesces its digests into one DigestBatch frame per neighbor, so
// the fabric carries one frame per (sender, receiver) pair per batch
// instead of one per sealed block — and the acknowledgements are
// awaited together, amortizing the wait over the whole slot.
func (c *Cluster) SubmitBatch(ctx context.Context, batch []Submission) ([]Ref, error) {
	refs := make([]Ref, 0, len(batch))
	// Coalesce outbound announcements per sender, preserving seal
	// order within each sender's run so the receiver's A_i ends on the
	// newest digest.
	bySender := make(map[NodeID][]Digest, len(batch))
	senders := make([]*cluster.Device, 0, len(batch))
	for _, sub := range batch {
		d, ok := c.backends[sub.Node]
		if !ok {
			return refs, fmt.Errorf("twoldag: unknown node %v", sub.Node)
		}
		ref, dg, err := d.Seal(sub.Data)
		if err != nil {
			return refs, err
		}
		refs = append(refs, ref)
		if _, seen := bySender[sub.Node]; !seen {
			senders = append(senders, d)
		}
		bySender[sub.Node] = append(bySender[sub.Node], dg)
	}
	actx, cancel := cluster.AckContext(ctx, c.dev.RequestTimeout)
	defer cancel()
	var acks cluster.Acks
	for _, d := range senders {
		if err := d.Announce(actx, bySender[d.ID()], &acks); err != nil {
			acks.Cancel()
			return refs, err
		}
	}
	if err := acks.Await(actx); err != nil {
		return refs, err
	}
	return refs, nil
}

// Audit implements Runtime.
func (c *Cluster) Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error) {
	d, ok := c.backends[validator]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown validator %v", validator)
	}
	return d.Audit(ctx, ref)
}

// AuditMany implements Runtime: audits fan out over a worker pool
// bounded by WithWorkers. Node runtimes build a fresh PoP validator
// per audit over shared, locked state, so any mix of validators may
// run concurrently.
func (c *Cluster) AuditMany(ctx context.Context, reqs []AuditRequest) []AuditOutcome {
	out := make([]AuditOutcome, len(reqs))
	fanOut(len(reqs), c.workers, func(i int) {
		r := reqs[i]
		res, err := c.Audit(ctx, r.Validator, r.Ref)
		out[i] = AuditOutcome{Request: r, Result: res, Err: err}
	})
	return out
}

// Block implements Runtime. The returned block is shared, sealed
// store state — treat it as read-only and Clone it before mutating.
func (c *Cluster) Block(ref Ref) (*Block, error) {
	d, ok := c.backends[ref.Node]
	if !ok {
		return nil, fmt.Errorf("twoldag: unknown node %v", ref.Node)
	}
	return d.Block(ref)
}

// ProveSample builds an inclusion proof for the i-th body chunk of the
// given block.
func (c *Cluster) ProveSample(ref Ref, leafIndex int) (*SampleProof, error) {
	b, err := c.Block(ref)
	if err != nil {
		return nil, err
	}
	return c.dev.Params.ProveSample(b, leafIndex)
}

// VerifySample checks a sample proof against the header established by
// a successful audit of the same block.
func (c *Cluster) VerifySample(res *AuditResult, sp *SampleProof) error {
	if !res.Consensus || len(res.Path) == 0 {
		return fmt.Errorf("twoldag: audit of %v did not reach consensus", res.Target)
	}
	return c.dev.Params.VerifySample(res.Path[0].Header, sp)
}

// Join implements Runtime (the paper's Sec. VII dynamic-membership
// extension): the new device is placed within radio range of the
// newest live device, registered in the key ring, and starts serving
// immediately.
func (c *Cluster) Join() (NodeID, error) {
	id, err := placeJoiner(c.dev.Topo, c.ids, c.running)
	if err != nil {
		return 0, err
	}
	kp := identity.Deterministic(id, c.seed)
	if err := c.dev.Ring.Register(kp.ID, kp.Public); err != nil {
		return 0, fmt.Errorf("twoldag: registering joiner: %w", err)
	}
	if err := c.startDevice(kp); err != nil {
		return 0, fmt.Errorf("twoldag: joiner: %w", err)
	}
	c.ids = append(c.ids, id)
	return id, nil
}

// Silence implements Runtime: the device's transport closes, and
// subsequent audits must route around it, as in the paper's
// malicious-node experiments. With WithDataDir, the node's backend is
// flushed and closed too — everything the node accepted before going
// silent is on disk, and Restart can bring it back from exactly that
// state.
func (c *Cluster) Silence(id NodeID) error {
	d, ok := c.backends[id]
	if !ok {
		return fmt.Errorf("twoldag: unknown node %v", id)
	}
	delete(c.backends, id)
	err := d.Close()
	if rerr := c.fab.remove(id); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Restart brings a silenced (or crashed) device back from its data
// dir: the backend reopens, the whole ledger state recovers from
// snapshot + WAL, and the node serves again under the same identity.
// Requires WithDataDir; the device must not be running. The restarted
// node's A_i, H_i and S_i are exactly what was durable at silence
// time — the caller re-flushes its latest digest if neighbors were
// ahead of the crash point.
func (c *Cluster) Restart(id NodeID) error {
	if c.dataDir == "" {
		return fmt.Errorf("twoldag: Restart(%v) requires WithDataDir", id)
	}
	if c.running(id) {
		return fmt.Errorf("twoldag: node %v is still running", id)
	}
	known := false
	for _, kid := range c.ids {
		if kid == id {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("twoldag: unknown node %v", id)
	}
	return c.startDevice(identity.Deterministic(id, c.seed))
}

// StateDigest returns a canonical digest over a node's whole ledger
// state — the snapshot-v2 serialization of (S_i, H_i, A_i, trust cap)
// — for byte-identity checks across crash/recovery boundaries.
func (c *Cluster) StateDigest(id NodeID) (Digest, error) {
	d, ok := c.backends[id]
	if !ok {
		return Digest{}, fmt.Errorf("twoldag: unknown node %v", id)
	}
	return d.StateDigest()
}

// Close implements Runtime: every device stops (node, then backend),
// then the fabric.
func (c *Cluster) Close() error {
	var first error
	for id, d := range c.backends {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.backends, id)
	}
	if err := c.fab.close(); err != nil && first == nil {
		first = err
	}
	return first
}
