// Package twoldag is the public API of the 2LDAG reproduction: a
// two-layer DAG architecture with a reactive Proof-of-Path (PoP)
// consensus protocol for IoT data reliability (Yang et al., ICDCS
// 2023).
//
// # Runtime drivers
//
// New builds a Runtime from functional options. Two drivers implement
// the same interface:
//
//   - The live cluster (default): one node runtime per IoT device
//     exchanging real wire messages — over the in-process fabric or,
//     with WithTransport(TCP), over loopback TCP listeners.
//   - The deterministic simulator (WithSimulator): the same engines
//     and validators resolving requests in-process, with the paper's
//     analytic cost accounting and injectable attack behaviors
//     (WithMalicious). Identical options reproduce identical runs.
//
// A typical deployment:
//
//	rt, err := twoldag.New(
//	    twoldag.WithNodes(50),
//	    twoldag.WithGamma(4),
//	    twoldag.WithSeed(1),
//	    twoldag.WithTransport(twoldag.TCP),
//	    twoldag.WithWorkers(8),
//	)
//	...
//	rt.AdvanceSlot()
//	refs, err := rt.SubmitBatch(ctx, batch)  // one flush per slot
//	...
//	outs := rt.AuditMany(ctx, reqs)          // bounded worker pool
//	if outs[0].Result.Consensus { /* γ+1 nodes vouch */ }
//
// Each node stores only its own data blocks plus neighbor header
// digests (the 2LDAG storage model); audits run the full PoP protocol
// — on demand, reactively — collecting γ+1 distinct vouchers before
// declaring a block trustworthy.
//
// # Observing a deployment
//
// WithObserver attaches a typed event observer streaming BlockSealed,
// DigestBatchDelivered, AuditHop, ConsensusReached and AuditFailed —
// identically on both drivers. The experiments harness (package
// experiments, regenerating every figure of the paper) and the
// bundled commands consume the same stream.
package twoldag

import (
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// Re-exported core types.
type (
	// NodeID identifies a device.
	NodeID = identity.NodeID
	// Ref identifies a data block by origin and sequence.
	Ref = block.Ref
	// Block is a 2LDAG data block.
	Block = block.Block
	// AuditResult reports a PoP verification outcome and its costs.
	AuditResult = core.Result
	// Topology is the physical radio graph.
	Topology = topology.Graph
	// SampleProof binds one sensor sample (body chunk) to a block's
	// Merkle root, so it can be checked against an audited header
	// without re-fetching the body.
	SampleProof = block.SampleProof
	// SmallWorldConfig / GeoClusteredConfig size the sparse topology
	// generators below.
	SmallWorldConfig   = topology.SmallWorldConfig
	GeoClusteredConfig = topology.GeoClusteredConfig
)

// SmallWorld generates a seeded ring-lattice graph with probabilistic
// rewiring (Watts–Strogatz style): low degree, short paths, always
// connected. The sparse shape that lets the simulator scale to 10k+
// nodes; pass the result to WithTopology.
func SmallWorld(cfg SmallWorldConfig) (*Topology, error) { return topology.SmallWorld(cfg) }

// GeoClustered generates a seeded cluster-of-clusters graph: dense
// local clusters on a grid joined by gateway links, the shape of
// real-world IoT site deployments. Pass the result to WithTopology.
func GeoClustered(cfg GeoClusteredConfig) (*Topology, error) { return topology.GeoClustered(cfg) }

// Sentinel errors re-exported for errors.Is checks.
var (
	// ErrNoConsensus: PoP exhausted every path without γ+1 vouchers.
	ErrNoConsensus = core.ErrNoConsensus
	// ErrTampered: the audited block failed its Merkle root check.
	ErrTampered = core.ErrRootMismatch
)
