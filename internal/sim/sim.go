// Package sim is the slotted-time simulator behind every figure in the
// paper's evaluation (Sec. VI).
//
// Time is divided into slots. Each node generates at most one block per
// slot (at its configured period), announces the header digest to its
// radio neighbors, and — once the network is older than |V| slots —
// audits one past block per generated block by running the real PoP
// validator (internal/core) over an in-process fetcher that accounts
// every transmission with the paper's analytic size model and injects
// the configured attack behaviors.
//
// Storage accounting per node = S_i (own blocks, Eq. 2) + H_i (verified
// headers, Prop. 2) + optionally the full blocks retained from
// successful audits (see DESIGN.md on the Fig. 7 calibration).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/metrics"
	"github.com/twoldag/twoldag/internal/par"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/topology"
)

// ErrBadConfig reports invalid simulation parameters.
var ErrBadConfig = errors.New("sim: invalid config")

// Config parameterizes one simulation run.
type Config struct {
	// Graph is the physical topology; when nil, Topo generates one.
	Graph *topology.Graph
	// Topo is used when Graph is nil.
	Topo topology.Config
	// Seed drives every random choice (placement uses Topo.Seed).
	Seed int64
	// Slots is the horizon T.
	Slots int
	// BodyBytes is C in bytes (0.1/0.5/1 MB in the paper).
	BodyBytes int
	// Gamma is the tolerated malicious count γ.
	Gamma int
	// Malicious is how many nodes actually behave maliciously.
	Malicious int
	// Behavior is the malicious behavior kind (default silent).
	Behavior attack.Kind
	// RandomPeriodMax ≥ 2 draws each node's generation period uniformly
	// from {1..RandomPeriodMax}; otherwise every node generates each
	// slot.
	RandomPeriodMax int
	// Strategy overrides WPS (ablations).
	Strategy core.SelectionStrategy
	// DisableTrust turns off H_i caching (TPS ablation).
	DisableTrust bool
	// TrustCap bounds each validator's H_i to this many headers with
	// deterministic oldest-first eviction (ledger.TrustStore.SetCap).
	// 0 (the default) keeps H_i unbounded — the paper's behavior and
	// the live driver's. Scale runs set it: with every node auditing
	// every slot, unbounded trust retention is the dominant memory
	// term past a few thousand nodes.
	TrustCap int
	// DisableAudits turns off per-generation audits (used by the
	// consensus-probe experiment, which runs its own verifications).
	DisableAudits bool
	// RetainVerifiedBlocks adds retrieved blocks to storage accounting.
	RetainVerifiedBlocks bool
	// VerifyLag is the minimum age (slots) of auditable blocks;
	// 0 means |V| per Sec. VI.
	VerifyLag int
	// Difficulty is the PoW difficulty ρ; simulations default to 0 so
	// runs stay fast (cost accounting never depends on ρ).
	Difficulty pow.Difficulty
	// SyntheticBodyBytes is the materialized body size (the accounted
	// size is always BodyBytes); 0 means 32.
	SyntheticBodyBytes int
	// StepBudget caps per-audit probing (0 = core default).
	StepBudget int
	// Workers bounds the goroutines running per-slot generation and
	// audits: 0 uses GOMAXPROCS, 1 forces the serial scheduler. Every
	// random choice inside a slot draws from a per-node stream, so a
	// given Seed produces an identical Report for any worker count.
	Workers int
	// SampleMemStats fills Report.Mem with process heap statistics at
	// Finalize (runtime.ReadMemStats). Off by default: the sample
	// reflects the whole process, not just this run, and it is the one
	// Report field that is NOT a pure function of the Config — leave it
	// off where reports are compared across runs.
	SampleMemStats bool
	// Observer, when non-nil, receives the typed event stream
	// (internal/events): block seals, digest deliveries, audit hops and
	// outcomes. Generation and audit phases run on a worker pool, so
	// the observer must be safe for concurrent use. The Report stays a
	// pure function of the Config regardless of observer behavior.
	Observer events.Observer
}

func (c Config) validate() error {
	if c.Slots < 0 {
		return fmt.Errorf("%w: %d slots", ErrBadConfig, c.Slots)
	}
	if c.BodyBytes <= 0 {
		return fmt.Errorf("%w: body %d bytes", ErrBadConfig, c.BodyBytes)
	}
	if c.Gamma < 0 {
		return fmt.Errorf("%w: gamma %d", ErrBadConfig, c.Gamma)
	}
	if c.Malicious < 0 {
		return fmt.Errorf("%w: malicious %d", ErrBadConfig, c.Malicious)
	}
	if c.TrustCap < 0 {
		return fmt.Errorf("%w: trust cap %d", ErrBadConfig, c.TrustCap)
	}
	return nil
}

// loggedBlock records one generated block for audit-target selection.
type loggedBlock struct {
	ref  block.Ref
	slot int
}

// nodeSeed derives node id's private RNG stream from the run seed with
// golden-ratio mixing so nearby seeds decorrelate.
func nodeSeed(seed int64, id identity.NodeID) int64 {
	return seed ^ int64(uint64(id+1)*0x9E3779B97F4A7C15)
}

// commCell is one node's transmission counter. Fields are atomic so
// parallel audits can charge arbitrary responders concurrently; atomic
// addition is commutative, which keeps totals independent of audit
// scheduling order.
type commCell struct {
	construction atomic.Int64
	consensus    atomic.Int64
}

func (c *commCell) add(p metrics.Purpose, bits int64) {
	if p == metrics.Construction {
		c.construction.Add(bits)
	} else {
		c.consensus.Add(bits)
	}
}

func (c *commCell) totalBits() int64 {
	return c.construction.Load() + c.consensus.Load()
}

// Sim is a running simulation. Build with New; Step/Run must not be
// called concurrently (each Step fans its per-node work out over a
// persistent worker pool). Call Close when done to release the pool's
// goroutines.
type Sim struct {
	cfg    Config
	graph  *topology.Graph
	model  block.SizeModel
	params block.Params
	ring   *identity.Ring
	rng    *rand.Rand

	// pool runs the slot phases (generation, announcement, audits).
	pool   *par.Pool
	closed bool

	// Per-node state is ordinal-indexed: ids assigns each node a dense
	// ordinal at join, idx inverts it, and everything else is a slice
	// over ordinals — at 10k–100k nodes, slice indexing replaces a map
	// probe on every hot-path touch and the per-node bookkeeping costs
	// a few words instead of map buckets. engines[i]/validators[i] are
	// nil for silenced nodes, behaviors[i] is nil for honest ones.
	ids        []identity.NodeID
	idx        map[identity.NodeID]int
	engines    []*core.Engine
	validators []*core.Validator
	behaviors  []attack.Behavior
	periods    []int
	// vcache is the one process-wide header-verification cache every
	// validator shares.
	vcache *block.VerifyCache
	// nodeRNG[i] is node i's private random stream; all of a node's
	// per-slot draws (body bytes, audit target, selection tie-breaks)
	// come from it, so slot outcomes are independent of worker
	// scheduling.
	nodeRNG []*rand.Rand
	// vmu[i] serializes externally driven audits per validator
	// (AuditFrom): a validator's RNG stream is not safe for concurrent
	// draws.
	vmu []*sync.Mutex

	comm         []*commCell
	retainedBits []int64
	blockLog     []loggedBlock
	slot         int
	// eligibleHi memoizes eligibleTargets' scan frontier (the cutoff is
	// monotone in the slot, so the prefix only ever grows).
	eligibleHi int

	// Announcement scratch, reused across flushes so the batched
	// phase 2 allocates nothing per slot: annSenders/annDigests hold
	// one flush's (sender, digest) pairs in slot order; annFrom[j] and
	// annDigs[j] are receiver j's batch columns; annRecvs lists the
	// receivers touched by the current flush and annErrs their
	// per-receiver delivery errors.
	annSenders []identity.NodeID
	annDigests []digest.Digest
	annFrom    [][]identity.NodeID
	annDigs    [][]digest.Digest
	annRecvs   []int
	annErrs    []error
	annNbs     []identity.NodeID

	// counters aggregates audit outcomes from the typed event stream —
	// the Report's Audits/Failures derive from it rather than from
	// ad-hoc tallies. obs additionally fans events out to the
	// user-configured observer; it is never nil (it always wraps
	// counters at least).
	counters *metrics.EventCounters
	obs      events.Observer

	// snappedSlot is the newest slot already appended to the report
	// series, making snapshot idempotent per slot: the slotted
	// scheduler snapshots at the end of every Step, the external drive
	// on AdvanceSlot, and Finalize closes a still-open final slot.
	snappedSlot int

	report *Report
}

// Report accumulates the per-slot series and final per-node samples the
// figures need.
type Report struct {
	// AvgStorageBits[s] is the mean per-node storage after slot s+1.
	AvgStorageBits []int64
	// AvgCommBits / AvgConstructionBits / AvgConsensusBits are mean
	// cumulative per-node transmissions after each slot.
	AvgCommBits         []int64
	AvgConstructionBits []int64
	AvgConsensusBits    []int64
	// Final per-node samples (CDF inputs).
	NodeStorageBits []int64
	NodeCommBits    []int64
	// Audits/Failures count PoP verifications run as audit duty.
	Audits, Failures int
	// Blocks is the total generated block count (Prop. 1's |B|).
	Blocks int
	// Mem holds the end-of-run heap sample when Config.SampleMemStats is
	// set; nil otherwise. It is process-level observability, not part of
	// the deterministic report surface.
	Mem *MemReport
}

// MemReport is the heap footprint sampled at Finalize
// (runtime.ReadMemStats), for scaling runs that report memory alongside
// time: bytes/node vs n is the headline curve of the scaling
// experiment.
type MemReport struct {
	// HeapInuseBytes is spans-in-use; HeapAllocBytes live objects.
	HeapInuseBytes  uint64
	HeapAllocBytes  uint64
	TotalAllocBytes uint64
	NumGC           uint32
	// BytesPerNode is HeapInuseBytes / |V|.
	BytesPerNode uint64
}

// New builds a simulation.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		var err error
		g, err = topology.Generate(cfg.Topo)
		if err != nil {
			return nil, fmt.Errorf("sim: generating topology: %w", err)
		}
	}
	if cfg.SyntheticBodyBytes <= 0 {
		cfg.SyntheticBodyBytes = 32
	}
	if cfg.VerifyLag <= 0 {
		cfg.VerifyLag = g.Len()
	}
	if cfg.Behavior == "" {
		cfg.Behavior = attack.KindSilent
	}

	params := block.Params{
		Version:    block.CurrentVersion,
		Difficulty: cfg.Difficulty,
		LeafSize:   1024,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ids := g.Nodes()
	counters := &metrics.EventCounters{}
	s := &Sim{
		cfg:          cfg,
		graph:        g,
		model:        block.DefaultSizeModel(cfg.BodyBytes),
		params:       params,
		rng:          rng,
		ids:          ids,
		idx:          make(map[identity.NodeID]int, len(ids)),
		engines:      make([]*core.Engine, len(ids)),
		validators:   make([]*core.Validator, len(ids)),
		behaviors:    make([]attack.Behavior, len(ids)),
		vmu:          make([]*sync.Mutex, len(ids)),
		vcache:       block.NewVerifyCache(),
		nodeRNG:      make([]*rand.Rand, len(ids)),
		comm:         make([]*commCell, len(ids)),
		retainedBits: make([]int64, len(ids)),
		periods:      make([]int, len(ids)),
		counters:     counters,
		obs:          events.Multi(counters, cfg.Observer),
		report:       &Report{},
	}
	var pairs []identity.KeyPair
	for i, id := range ids {
		s.idx[id] = i
		key := identity.Deterministic(id, cfg.Seed)
		pairs = append(pairs, key)
		// Every engine shares the process-wide verification cache — with
		// lazily indexed stores, the memory shape that fits 10k–100k
		// ledgers in one process.
		eng, err := core.NewEngineWith(key, params, g, core.EngineOptions{VerifyCache: s.vcache})
		if err != nil {
			return nil, fmt.Errorf("sim: engine %v: %w", id, err)
		}
		s.engines[i] = eng
		s.comm[i] = &commCell{}
		// A fixed per-node stream, derived from the run seed and the
		// node ID with golden-ratio mixing so nearby seeds decorrelate.
		s.nodeRNG[i] = rand.New(rand.NewSource(nodeSeed(cfg.Seed, id)))
		s.vmu[i] = &sync.Mutex{}
		s.periods[i] = 1
		if cfg.RandomPeriodMax >= 2 {
			s.periods[i] = 1 + rng.Intn(cfg.RandomPeriodMax)
		}
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		return nil, fmt.Errorf("sim: building ring: %w", err)
	}
	s.ring = ring
	for id, b := range attack.Assign(ids, cfg.Malicious, cfg.Behavior, rng) {
		s.behaviors[s.idx[id]] = b
	}
	for i, id := range ids {
		v, err := s.newValidator(id, i)
		if err != nil {
			return nil, fmt.Errorf("sim: validator %v: %w", id, err)
		}
		s.validators[i] = v
	}
	s.pool = par.NewPool(workers)
	return s, nil
}

// newValidator builds node id's persistent validator over the shared
// ring, topology and verification cache.
func (s *Sim) newValidator(id identity.NodeID, i int) (*core.Validator, error) {
	trust := s.engines[i].Trust()
	if s.cfg.DisableTrust {
		trust = nil
	} else if s.cfg.TrustCap > 0 {
		trust.SetCap(s.cfg.TrustCap)
	}
	return core.NewValidator(core.ValidatorConfig{
		Self:        id,
		Gamma:       s.cfg.Gamma,
		Params:      s.params,
		Ring:        s.ring,
		Topo:        s.graph,
		Trust:       trust,
		Strategy:    s.cfg.Strategy,
		RNG:         s.nodeRNG[i],
		StepBudget:  s.cfg.StepBudget,
		VerifyCache: s.engines[i].VerifyCache(),
	})
}

// engineOf resolves a node ID to its live engine; ok is false for
// unknown and silenced nodes alike.
func (s *Sim) engineOf(id identity.NodeID) (*core.Engine, bool) {
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return nil, false
	}
	return s.engines[i], true
}

// behaviorOf returns node id's attack behavior (Honest for everyone
// not assigned one).
func (s *Sim) behaviorOf(id identity.NodeID) attack.Behavior {
	if i, known := s.idx[id]; known && s.behaviors[i] != nil {
		return s.behaviors[i]
	}
	return attack.Honest{}
}

// Close releases the worker pool's goroutines. The accumulated report
// stays readable through Finalize; Step, Run and the external-drive
// verbs must not be called afterwards. Idempotent.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.pool.Close()
}

// Graph returns the physical topology.
func (s *Sim) Graph() *topology.Graph { return s.graph }

// Ring returns the shared public-key registry.
func (s *Sim) Ring() *identity.Ring { return s.ring }

// Model returns the analytic size model in use.
func (s *Sim) Model() block.SizeModel { return s.model }

// Stores returns every live node's block store (for DAG analysis).
func (s *Sim) Stores() map[identity.NodeID]*ledger.Store {
	out := make(map[identity.NodeID]*ledger.Store, len(s.ids))
	for i, id := range s.ids {
		if s.engines[i] != nil {
			out[id] = s.engines[i].Store()
		}
	}
	return out
}

// MaliciousNodes returns the IDs assigned a malicious behavior, in
// arbitrary order.
func (s *Sim) MaliciousNodes() []identity.NodeID {
	var out []identity.NodeID
	for i, id := range s.ids {
		if s.behaviors[i] != nil {
			out = append(out, id)
		}
	}
	return out
}

// Slot returns the number of completed slots.
func (s *Sim) Slot() int { return s.slot }

// headerModelBits is f_c + f_H·|Δ| for a concrete header.
func (s *Sim) headerModelBits(h *block.Header) int64 {
	return int64(s.model.ConstantBits() + s.model.FH*len(h.Digests))
}

// blockModelBits adds the C-bit body (Eq. 2).
func (s *Sim) blockModelBits(h *block.Header) int64 {
	return s.headerModelBits(h) + int64(s.model.C)
}

// Step advances one slot in three phases:
//
//  1. Generation — every node due this slot mines its block from its
//     start-of-slot digest cache, in parallel (a node's generation only
//     touches its own engine and RNG stream).
//  2. Announcement — the slot's digests are grouped by receiver and
//     ingested as one per-receiver batch (Engine.OnDigestBatch) on the
//     worker pool: each receiver's A_i is touched by exactly one
//     goroutine, so delivery parallelizes without contention. Inside a
//     batch the (sender, digest) pairs keep slot order — the order a
//     serial per-edge delivery would apply them — so cache contents do
//     not depend on the worker count.
//  3. Audit duty — each generating honest node runs one PoP audit, in
//     parallel; responder comm charges are atomic, and all random
//     draws come from the auditing node's own stream.
//
// The phases run under full barriers, so every slot keeps synchronous
// semantics: blocks generated in slot t reference digests announced in
// slots < t, and audits in slot t see all blocks through slot t. The
// report is a pure function of the Config, independent of worker
// count.
func (s *Sim) Step() error {
	if s.closed {
		return fmt.Errorf("%w: Step on a closed simulation", ErrBadConfig)
	}
	s.slot++
	var gens []int
	for i := range s.ids {
		if s.engines[i] == nil {
			continue // silenced via dynamic membership
		}
		if (s.slot-1)%s.periods[i] == 0 {
			gens = append(gens, i)
		}
	}

	// Phase 1: parallel block generation, chunked so each worker claims
	// a contiguous range of generators and reuses one body buffer across
	// it (Engine's Build copies the body out). Which worker generates
	// which node is irrelevant to the outcome: every draw comes from the
	// node's own stream.
	type genResult struct {
		ref block.Ref
		dig digest.Digest
		err error
	}
	results := make([]genResult, len(gens))
	s.pool.RunChunked(len(gens), func(lo, hi int) {
		body := make([]byte, s.cfg.SyntheticBodyBytes)
		for k := lo; k < hi; k++ {
			i := gens[k]
			id := s.ids[i]
			s.nodeRNG[i].Read(body)
			b, d, err := s.engines[i].Generate(uint32(s.slot), body)
			if err != nil {
				results[k] = genResult{err: fmt.Errorf("sim: slot %d: %w", s.slot, err)}
				continue
			}
			// DAG construction traffic: one digest per neighbor (Sec. III-D).
			deg := s.graph.Degree(id)
			s.comm[i].add(metrics.Construction, int64(deg)*int64(s.model.DigestBits()))
			s.obs.OnBlockSealed(events.BlockSealed{
				Node: id, Ref: b.Header.Ref(), Digest: d, Slot: uint32(s.slot),
			})
			results[k] = genResult{ref: b.Header.Ref(), dig: d}
		}
	})

	// Phase 2: bookkeeping in node order, then receiver-centric batched
	// announcement on the worker pool. The whole slot's generation must
	// validate before anything is announced (sealed-delivery contract:
	// a slot's announcements flush atomically or not at all).
	senders := s.annSenders[:0]
	digs := s.annDigests[:0]
	for k, i := range gens {
		r := results[k]
		if r.err != nil {
			return r.err
		}
		senders = append(senders, s.ids[i])
		digs = append(digs, r.dig)
		s.blockLog = append(s.blockLog, loggedBlock{ref: r.ref, slot: s.slot})
		s.report.Blocks++
	}
	s.annSenders, s.annDigests = senders, digs
	if err := s.deliverBatched(senders, digs); err != nil {
		return err
	}

	// Phase 3: audit duty for honest generators, chunked like the other
	// phases. Every audit draws only from its own node's stream and
	// charges comm atomically, so the partition is outcome-neutral.
	if !s.cfg.DisableAudits {
		eligible := s.eligibleTargets()
		s.pool.RunChunked(len(gens), func(lo, hi int) {
			for _, i := range gens[lo:hi] {
				if s.behaviors[i] == nil {
					s.auditDuty(i, eligible)
				}
			}
		})
	}
	s.snapshot()
	return nil
}

// deliverBatched is the receiver-centric announcement path: one
// flush's (froms[i] announced ds[i]) pairs are grouped by receiving
// neighbor and ingested as one Engine.OnDigestBatch call per receiver
// on the worker pool. Each receiver's cache is touched by exactly one
// goroutine, so the phase parallelizes contention-free, and every
// batch keeps its pairs in flush order — bit-identical cache contents
// to serial per-edge delivery, for any worker count. Silenced
// neighbors miss the flush, like a dead radio. The per-receiver
// scratch columns are reused across flushes, so a full slot's
// delivery allocates nothing.
func (s *Sim) deliverBatched(froms []identity.NodeID, ds []digest.Digest) error {
	for len(s.annFrom) < len(s.ids) {
		s.annFrom = append(s.annFrom, nil)
		s.annDigs = append(s.annDigs, nil)
	}
	recvs := s.annRecvs[:0]
	for k, from := range froms {
		nbs := s.graph.AppendNeighbors(s.annNbs[:0], from)
		s.annNbs = nbs
		for _, nb := range nbs {
			j, known := s.idx[nb]
			if !known || s.engines[j] == nil {
				continue // silenced neighbors miss the announcement
			}
			if len(s.annFrom[j]) == 0 {
				recvs = append(recvs, j)
			}
			s.annFrom[j] = append(s.annFrom[j], from)
			s.annDigs[j] = append(s.annDigs[j], ds[k])
		}
	}
	s.annRecvs = recvs
	errs := s.annErrs[:0]
	for range recvs {
		errs = append(errs, nil)
	}
	s.annErrs = errs
	s.pool.RunChunked(len(recvs), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			j := recvs[k]
			to := s.ids[j]
			if err := s.engines[j].OnDigestBatch(s.annFrom[j], s.annDigs[j]); err != nil {
				errs[k] = fmt.Errorf("sim: delivering batch to %v: %w", to, err)
				continue
			}
			s.obs.OnDigestBatchDelivered(events.DigestBatchDelivered{
				To: to, From: s.annFrom[j], Digests: s.annDigs[j],
			})
		}
	})
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	for _, j := range recvs {
		s.annFrom[j] = s.annFrom[j][:0]
		s.annDigs[j] = s.annDigs[j][:0]
	}
	return first
}

// auditDuty runs one PoP verification of a random sufficiently old
// block (Sec. VI: a node acts as validator whenever it generates).
// Outcomes flow through the typed event stream; retained-storage
// accounting goes straight to the auditor's own slot.
func (s *Sim) auditDuty(i, eligible int) {
	id := s.ids[i]
	target, ok := s.pickTarget(i, eligible)
	if !ok {
		return
	}
	f := &simFetcher{sim: s, validator: id}
	res, err := s.validators[i].Verify(context.Background(), target, f)
	s.observeOutcome(id, target, res, err)
	if err == nil && res.Consensus && s.cfg.RetainVerifiedBlocks {
		// The validator holds on to the retrieved block (header+body).
		s.retainedBits[i] += s.blockModelBits(res.Path[0].Header)
	}
}

// observeOutcome emits the terminal audit event for a verification.
func (s *Sim) observeOutcome(v identity.NodeID, target block.Ref, res *core.Result, err error) {
	if err == nil && res.Consensus {
		s.obs.OnConsensusReached(events.ConsensusReached{
			Validator: v, Target: target, Vouchers: res.Vouchers,
			PathLen: len(res.Path), Messages: res.MessagesSent + res.MessagesReceived,
			TrustHits: res.TrustHits,
		})
		return
	}
	s.obs.OnAuditFailed(events.AuditFailed{Validator: v, Target: target, Err: err})
}

// eligibleTargets returns the length of the blockLog prefix old enough
// to audit this slot (blockLog is sorted by slot). The cutoff is
// monotone in the slot, so the scan resumes from the last frontier.
func (s *Sim) eligibleTargets() int {
	cutoff := s.slot - s.cfg.VerifyLag
	if cutoff < 1 {
		return 0
	}
	hi := s.eligibleHi
	for hi < len(s.blockLog) && s.blockLog[hi].slot <= cutoff {
		hi++
	}
	s.eligibleHi = hi
	return hi
}

// pickTarget selects a uniformly random block from the first eligible
// entries of the block log, not generated by the validator itself,
// drawing from the validator's own RNG stream.
func (s *Sim) pickTarget(i, eligible int) (block.Ref, bool) {
	if eligible == 0 {
		return block.Ref{}, false
	}
	validator := s.ids[i]
	for tries := 0; tries < 8; tries++ {
		cand := s.blockLog[s.nodeRNG[i].Intn(eligible)]
		if cand.ref.Node != validator {
			return cand.ref, true
		}
	}
	return block.Ref{}, false
}

// snapshot appends the current slot's aggregate points to the report,
// at most once per slot: Step calls it once the slot's audits are
// done, the external drive on AdvanceSlot, and Finalize for a
// still-open final slot.
func (s *Sim) snapshot() {
	if s.slot == 0 || s.snappedSlot >= s.slot {
		return
	}
	s.snappedSlot = s.slot
	var storage, constr, cons int64
	for i := range s.ids {
		storage += s.storageBits(i)
		constr += s.comm[i].construction.Load()
		cons += s.comm[i].consensus.Load()
	}
	n := int64(len(s.ids))
	r := s.report
	r.AvgStorageBits = append(r.AvgStorageBits, storage/n)
	r.AvgCommBits = append(r.AvgCommBits, (constr+cons)/n)
	r.AvgConstructionBits = append(r.AvgConstructionBits, constr/n)
	r.AvgConsensusBits = append(r.AvgConsensusBits, cons/n)
}

// storageBits is the node's total footprint under the size model.
// Silenced nodes contribute nothing (their state left the network).
func (s *Sim) storageBits(i int) int64 {
	eng := s.engines[i]
	if eng == nil {
		return 0
	}
	total := eng.Store().ModelBits(s.model) + s.retainedBits[i]
	if !s.cfg.DisableTrust {
		total += eng.Trust().ModelBits(s.model)
	}
	return total
}

// Run executes cfg.Slots steps and finalizes the report.
func (s *Sim) Run() (*Report, error) {
	for s.slot < s.cfg.Slots {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Finalize(), nil
}

// RunSlots advances the slotted scheduler n more slots (n Step calls)
// without finalizing, so callers that reach the Sim through the public
// Runtime facade can drive the same generation/announcement/audit
// schedule the figures use and read the report with Finalize. Every
// slot completes before RunSlots returns, so membership changes and
// more RunSlots calls may follow. Do not mix RunSlots with the
// external-drive verbs (GenerateAs, AuditFrom) on the same Sim.
func (s *Sim) RunSlots(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Finalize fills the per-node samples and returns the report. Audit
// totals come from the event counters, so externally driven audits
// (AuditFrom) count alongside per-slot audit duty; an externally
// driven run's still-open final slot is snapshotted here.
func (s *Sim) Finalize() *Report {
	s.snapshot()
	r := s.report
	r.Audits, r.Failures = int(s.counters.Audits()), int(s.counters.AuditsFailed())
	r.NodeStorageBits = make([]int64, len(s.ids))
	r.NodeCommBits = make([]int64, len(s.ids))
	for i := range s.ids {
		r.NodeStorageBits[i] = s.storageBits(i)
		r.NodeCommBits[i] = s.comm[i].totalBits()
	}
	if s.cfg.SampleMemStats && r.Mem == nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Mem = &MemReport{
			HeapInuseBytes:  ms.HeapInuse,
			HeapAllocBytes:  ms.HeapAlloc,
			TotalAllocBytes: ms.TotalAlloc,
			NumGC:           ms.NumGC,
			BytesPerNode:    ms.HeapInuse / uint64(len(s.ids)),
		}
	}
	return r
}

// The methods below drive a Sim externally, one protocol verb at a
// time, instead of via the slotted Step schedule. They power the
// public Runtime facade's deterministic-simulator driver: the same
// engines, fetcher accounting and attack behaviors, but generation and
// audits happen exactly when the caller says so. Do not mix external
// drive with Step on the same Sim, and do not call membership methods
// (JoinNode, Silence) concurrently with submissions or audits.

// AdvanceSlot closes the current logical slot — appending its
// aggregate storage/comm sample to the report, mirroring Step's
// per-slot snapshot — and begins the next one. Blocks submitted
// afterwards carry the new slot in their Time field.
func (s *Sim) AdvanceSlot() {
	s.snapshot()
	s.slot++
}

// GenerateAs seals node id's next block from body without announcing
// it, returning the block ref and the digest to announce, and charges
// construction traffic to the size model exactly as the slotted
// scheduler does. Submitters generate a whole batch's blocks first and
// then flush all announcements with AnnounceBatch, mirroring the
// slotted scheduler's generation/announcement phase split.
func (s *Sim) GenerateAs(id identity.NodeID, body []byte) (block.Ref, digest.Digest, error) {
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return block.Ref{}, digest.Digest{}, fmt.Errorf("sim: unknown or silenced node %v", id)
	}
	eng := s.engines[i]
	b, d, err := eng.Generate(uint32(s.slot), body)
	if err != nil {
		return block.Ref{}, digest.Digest{}, fmt.Errorf("sim: slot %d: %w", s.slot, err)
	}
	s.comm[i].add(metrics.Construction, int64(s.graph.Degree(id))*int64(s.model.DigestBits()))
	s.obs.OnBlockSealed(events.BlockSealed{
		Node: id, Ref: b.Header.Ref(), Digest: d, Slot: uint32(s.slot),
	})
	s.blockLog = append(s.blockLog, loggedBlock{ref: b.Header.Ref(), slot: s.slot})
	s.report.Blocks++
	return b.Header.Ref(), d, nil
}

// AnnounceBatch flushes a whole batch of digests returned by
// GenerateAs — froms[i] announced ds[i] — through the same
// receiver-centric delivery the slotted scheduler uses: grouped by
// receiving neighbor, one batch ingest per receiver on the worker
// pool, pairs in flush order. This is the external-drive verb behind
// the public Submit and SubmitBatch.
func (s *Sim) AnnounceBatch(froms []identity.NodeID, ds []digest.Digest) error {
	if len(froms) != len(ds) {
		return fmt.Errorf("sim: announce batch length mismatch: %d senders, %d digests", len(froms), len(ds))
	}
	for _, id := range froms {
		if _, live := s.engineOf(id); !live {
			return fmt.Errorf("sim: unknown or silenced node %v", id)
		}
	}
	return s.deliverBatched(froms, ds)
}

// BlockOf fetches a block from its origin's store (display and sample
// proofs). The result is shared sealed store state — read-only.
func (s *Sim) BlockOf(ref block.Ref) (*block.Block, error) {
	eng, live := s.engineOf(ref.Node)
	if !live {
		return nil, fmt.Errorf("sim: unknown or silenced node %v", ref.Node)
	}
	return eng.Store().Get(ref.Seq)
}

// AuditFrom runs a PoP verification from the given validator's
// persistent validator (H_i and the verification cache carry over
// between audits, as on a live node). Safe for concurrent use across
// distinct validators; audits from the same validator serialize on a
// per-validator mutex because its RNG stream is not concurrency-safe.
func (s *Sim) AuditFrom(ctx context.Context, validator identity.NodeID, target block.Ref) (*core.Result, error) {
	i, known := s.idx[validator]
	if !known || s.validators[i] == nil {
		return nil, fmt.Errorf("sim: unknown or silenced validator %v", validator)
	}
	v := s.validators[i]
	mu := s.vmu[i]
	mu.Lock()
	res, err := v.Verify(ctx, target, &simFetcher{sim: s, validator: validator})
	mu.Unlock()
	s.observeOutcome(validator, target, res, err)
	return res, err
}

// JoinNode registers a node that was already added to the shared
// topology: deterministic identity from the run seed, a fresh engine
// and persistent validator, and zeroed accounting. The id must be new
// to the simulation.
func (s *Sim) JoinNode(id identity.NodeID) error {
	if _, known := s.idx[id]; known {
		return fmt.Errorf("sim: node %v already known", id)
	}
	if !s.graph.Has(id) {
		return fmt.Errorf("sim: joiner %v not in topology", id)
	}
	key := identity.Deterministic(id, s.cfg.Seed)
	if err := s.ring.Register(key.ID, key.Public); err != nil {
		return fmt.Errorf("sim: registering joiner: %w", err)
	}
	eng, err := core.NewEngineWith(key, s.params, s.graph, core.EngineOptions{VerifyCache: s.vcache})
	if err != nil {
		return fmt.Errorf("sim: joiner engine: %w", err)
	}
	i := len(s.ids)
	s.idx[id] = i
	s.ids = append(s.ids, id)
	s.engines = append(s.engines, eng)
	s.behaviors = append(s.behaviors, nil)
	s.comm = append(s.comm, &commCell{})
	s.retainedBits = append(s.retainedBits, 0)
	s.periods = append(s.periods, 1)
	s.nodeRNG = append(s.nodeRNG, rand.New(rand.NewSource(nodeSeed(s.cfg.Seed, id))))
	s.vmu = append(s.vmu, &sync.Mutex{})
	v, err := s.newValidator(id, i)
	if err != nil {
		return fmt.Errorf("sim: joiner validator: %w", err)
	}
	s.validators = append(s.validators, v)
	return nil
}

// Silenced reports whether id is known to the simulation but no
// longer live (its engine was removed by Silence).
func (s *Sim) Silenced(id identity.NodeID) bool {
	i, known := s.idx[id]
	return known && s.engines[i] == nil
}

// Silence takes a node offline: its engine and validator leave the
// network, so PoP requests to it time out (the silent-attack shape)
// and subsequent audits must route around it. The node stays in the
// topology, exactly like a crashed radio.
func (s *Sim) Silence(id identity.NodeID) error {
	i, known := s.idx[id]
	if !known || s.engines[i] == nil {
		return fmt.Errorf("sim: unknown or already silenced node %v", id)
	}
	s.engines[i] = nil
	s.validators[i] = nil
	return nil
}

// Verify runs a one-off PoP verification from the given validator with
// a fresh, cache-less validator instance (used by the consensus-probe
// experiment so probes stay independent).
func (s *Sim) Verify(validator identity.NodeID, target block.Ref) (*core.Result, error) {
	v, err := core.NewValidator(core.ValidatorConfig{
		Self:       validator,
		Gamma:      s.cfg.Gamma,
		Params:     s.params,
		Ring:       s.ring,
		Topo:       s.graph,
		Strategy:   s.cfg.Strategy,
		RNG:        s.rng,
		StepBudget: s.cfg.StepBudget,
	})
	if err != nil {
		return nil, err
	}
	return v.Verify(context.Background(), target, &simFetcher{sim: s, validator: validator})
}

// BlockAt returns the ref of the i-th generated block and its slot.
func (s *Sim) BlockAt(i int) (block.Ref, int, error) {
	if i < 0 || i >= len(s.blockLog) {
		return block.Ref{}, 0, fmt.Errorf("%w: block index %d of %d", ErrBadConfig, i, len(s.blockLog))
	}
	lb := s.blockLog[i]
	return lb.ref, lb.slot, nil
}

// BlockCount returns the number of generated blocks.
func (s *Sim) BlockCount() int { return len(s.blockLog) }

// IsMalicious reports whether id carries a malicious behavior.
func (s *Sim) IsMalicious(id identity.NodeID) bool {
	i, known := s.idx[id]
	return known && s.behaviors[i] != nil
}

// simFetcher resolves PoP requests against the simulation state,
// applying attack behaviors and charging every transmission to the
// paper's size model.
type simFetcher struct {
	sim       *Sim
	validator identity.NodeID
}

var _ core.Fetcher = (*simFetcher)(nil)

func (f *simFetcher) behavior(j identity.NodeID) attack.Behavior {
	return f.sim.behaviorOf(j)
}

// RequestChild implements core.Fetcher with Algorithm 4 semantics.
func (f *simFetcher) RequestChild(_ context.Context, j identity.NodeID, target digest.Digest) (*block.Header, error) {
	s := f.sim
	s.obs.OnAuditHop(events.AuditHop{Validator: f.validator, Responder: j, Target: target})
	// Validator transmits REQ_CHILD (a digest-sized request).
	s.comm[s.idx[f.validator]].add(metrics.Consensus, int64(s.model.DigestBits()))

	var h *block.Header
	var err error
	eng, live := s.engineOf(j)
	if live {
		h, err = core.NewResponder(eng.Store()).ChildFor(target)
	} else {
		err = core.ErrTimeout
	}
	beh := f.behavior(j)
	h, err = beh.OnChildRequest(f.validator, j, target, h, err)
	if beh.Responds() && live {
		if h != nil {
			// Responder transmits RPY_CHILD with the header.
			s.comm[s.idx[j]].add(metrics.Consensus, s.headerModelBits(h))
		} else {
			// Negative reply: digest-sized NAK.
			s.comm[s.idx[j]].add(metrics.Consensus, int64(s.model.DigestBits()))
		}
	}
	return h, err
}

// FetchBlock implements core.Fetcher.
func (f *simFetcher) FetchBlock(_ context.Context, ref block.Ref) (*block.Block, error) {
	s := f.sim
	s.comm[s.idx[f.validator]].add(metrics.Consensus, int64(s.model.DigestBits()))

	var b *block.Block
	var err error
	eng, live := s.engineOf(ref.Node)
	if live {
		b, err = core.NewResponder(eng.Store()).Block(ref)
	} else {
		err = core.ErrTimeout
	}
	beh := f.behavior(ref.Node)
	b, err = beh.OnBlockRequest(f.validator, ref.Node, b, err)
	if beh.Responds() && live {
		if b != nil {
			s.comm[s.idx[ref.Node]].add(metrics.Consensus, s.blockModelBits(&b.Header))
		} else {
			s.comm[s.idx[ref.Node]].add(metrics.Consensus, int64(s.model.DigestBits()))
		}
	}
	return b, err
}

// StorageSeries renders per-slot average storage in MB.
func (r *Report) StorageSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgStorageBits {
		s.Append(float64(i+1), metrics.BitsToMB(bits))
	}
	return s
}

// CommSeries renders per-slot average cumulative total transmissions in
// Mb.
func (r *Report) CommSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgCommBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}

// ConstructionSeries renders the Fig. 8(b) line.
func (r *Report) ConstructionSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgConstructionBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}

// ConsensusSeries renders the Fig. 8(c) line.
func (r *Report) ConsensusSeries(name string) *metrics.Series {
	s := &metrics.Series{Name: name}
	for i, bits := range r.AvgConsensusBits {
		s.Append(float64(i+1), metrics.BitsToMb(bits))
	}
	return s
}
