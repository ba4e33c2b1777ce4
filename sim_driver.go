package twoldag

import (
	"context"

	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/sim"
	"github.com/twoldag/twoldag/internal/topology"
)

// SimDriver is the deterministic Runtime driver: the same engines and
// PoP validators as the live cluster, but protocol requests resolve
// in-process against the simulation state, with the paper's analytic
// cost accounting and injectable attack behaviors (WithMalicious).
// Identical options build identical deployments every run, which makes
// it the driver of choice for reproducible experiments, CI and
// scenario sweeps; cmd/experiments regenerates every figure of the
// paper on the same machinery.
type SimDriver struct {
	s       *sim.Sim
	topo    *topology.Graph
	ids     []NodeID
	seed    int64
	workers int
}

var _ Runtime = (*SimDriver)(nil)

// newSimDriver builds the simulator driver from resolved options.
func newSimDriver(cfg *config, g *topology.Graph) (*SimDriver, error) {
	s, err := sim.New(sim.Config{
		Graph:     g,
		Seed:      cfg.seed,
		BodyBytes: cfg.bodyBytes,
		Gamma:     cfg.gamma,
		Malicious: cfg.malicious,
		// The live driver's PoW and Merkle parameters apply verbatim, so
		// identical options yield identical blocks on either driver.
		Difficulty: cfg.params.Difficulty,
		TrustCap:   cfg.trustCap,
		Workers:    cfg.workers,
		Observer:   events.Multi(cfg.observers...),
	})
	if err != nil {
		return nil, err
	}
	return &SimDriver{s: s, topo: g, ids: g.Nodes(), seed: cfg.seed, workers: cfg.workers}, nil
}

// Nodes implements Runtime.
func (d *SimDriver) Nodes() []NodeID {
	return append([]NodeID(nil), d.ids...)
}

// Topology implements Runtime.
func (d *SimDriver) Topology() *Topology { return d.topo }

// Slot implements Runtime.
func (d *SimDriver) Slot() uint32 { return uint32(d.s.Slot()) }

// AdvanceSlot implements Runtime.
func (d *SimDriver) AdvanceSlot() { d.s.AdvanceSlot() }

// Submit implements Runtime as a one-item SubmitBatch. Announcements
// resolve synchronously in-process, so the call returns with every
// live neighbor's cache already updated — the simulator's equivalent
// of the live driver's acknowledgement wait.
func (d *SimDriver) Submit(ctx context.Context, id NodeID, data []byte) (Ref, error) {
	refs, err := d.SubmitBatch(ctx, []Submission{{Node: id, Data: data}})
	if len(refs) == 0 {
		return Ref{}, err
	}
	return refs[0], err
}

// SubmitBatch implements Runtime, mirroring the slotted scheduler's
// phase split: every block is sealed from the start-of-batch digest
// caches first, then the whole batch flushes through the
// receiver-centric delivery path (sim.AnnounceBatch) — the slot's
// digests grouped by receiving neighbor and ingested as one batch per
// receiver on the worker pool, the same semantics the live driver's
// coalesced frames and batched acknowledgement wait produce.
func (d *SimDriver) SubmitBatch(ctx context.Context, batch []Submission) ([]Ref, error) {
	refs := make([]Ref, 0, len(batch))
	froms := make([]NodeID, 0, len(batch))
	digs := make([]Digest, 0, len(batch))
	for _, sub := range batch {
		if err := ctx.Err(); err != nil {
			return refs, err
		}
		ref, dig, err := d.s.GenerateAs(sub.Node, sub.Data)
		if err != nil {
			return refs, err
		}
		refs = append(refs, ref)
		froms = append(froms, sub.Node)
		digs = append(digs, dig)
	}
	if err := d.s.AnnounceBatch(froms, digs); err != nil {
		return refs, err
	}
	return refs, nil
}

// Audit implements Runtime. The validator's trust store H_i and
// verification cache persist between audits, exactly as on a live
// node.
func (d *SimDriver) Audit(ctx context.Context, validator NodeID, ref Ref) (*AuditResult, error) {
	return d.s.AuditFrom(ctx, validator, ref)
}

// AuditMany implements Runtime: audits fan out over a worker pool
// bounded by WithWorkers. Audits from the same validator serialize
// internally (its random stream is single-threaded); distinct
// validators run fully in parallel.
func (d *SimDriver) AuditMany(ctx context.Context, reqs []AuditRequest) []AuditOutcome {
	out := make([]AuditOutcome, len(reqs))
	fanOut(len(reqs), d.workers, func(i int) {
		r := reqs[i]
		res, err := d.s.AuditFrom(ctx, r.Validator, r.Ref)
		out[i] = AuditOutcome{Request: r, Result: res, Err: err}
	})
	return out
}

// Block implements Runtime.
func (d *SimDriver) Block(ref Ref) (*Block, error) {
	return d.s.BlockOf(ref)
}

// Join implements Runtime.
func (d *SimDriver) Join() (NodeID, error) {
	id, err := placeJoiner(d.topo, d.ids, func(id NodeID) bool {
		return !d.s.Silenced(id)
	})
	if err != nil {
		return 0, err
	}
	if err := d.s.JoinNode(id); err != nil {
		return 0, err
	}
	d.ids = append(d.ids, id)
	return id, nil
}

// Silence implements Runtime: the node's engine and validator leave
// the simulation, so PoP requests to it time out and audits route
// around it.
func (d *SimDriver) Silence(id NodeID) error {
	return d.s.Silence(id)
}

// Close implements Runtime: it releases the simulator's worker-pool
// goroutines. Report stays readable after Close; the drive verbs do
// not.
func (d *SimDriver) Close() error {
	d.s.Close()
	return nil
}

// MaliciousNodes returns the IDs assigned a malicious behavior via
// WithMalicious, in arbitrary order.
func (d *SimDriver) MaliciousNodes() []NodeID { return d.s.MaliciousNodes() }

// SimReport is the simulator's per-slot cost series and audit totals
// (the figure-generation data model).
type SimReport = sim.Report

// Report finalizes and returns the simulation report accumulated so
// far: per-slot average storage and communication under the paper's
// size model, final per-node samples, and audit totals.
func (d *SimDriver) Report() *SimReport { return d.s.Finalize() }

// RunSlots drives the simulator's slotted scheduler for n slots —
// per-slot generation, receiver-batched announcement and audit duty,
// exactly the schedule behind the paper's figures — and leaves the
// report open for Report. Each slot runs its phases under barriers and
// completes before the next begins; the report is byte-identical for
// every worker count. It is the figure-regeneration entry point on the
// public API: experiments that used to reach into internal/sim build
// the driver with New(WithSimulator(), ...) and read SimDriver.Report
// instead. Do not mix RunSlots with the Submit/AdvanceSlot external
// drive on the same driver.
func (d *SimDriver) RunSlots(n int) error { return d.s.RunSlots(n) }
