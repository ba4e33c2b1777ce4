// Package events defines the typed observation stream of a running
// 2LDAG deployment. Every driver — the live node-per-device cluster
// and the deterministic slot simulator — emits the same five event
// kinds at the same protocol moments, so metrics aggregation, test
// instrumentation and user dashboards are written once against this
// vocabulary instead of per-driver ad-hoc counters:
//
//   - BlockSealed          — a node sealed its next data block (Sec. III-D).
//   - DigestBatchDelivered — a neighbor ingested one flush of header-digest
//     announcements, of any length, into its A_i cache in one
//     receiver-side pass (one event per receiver per flush; receiver
//     side, so the event doubles as a delivery acknowledgement).
//   - AuditHop             — a PoP validator issued one REQ_CHILD probe
//     (Sec. IV, Algorithm 3 line 17).
//   - ConsensusReached     — an audit collected γ+1 distinct vouchers.
//   - AuditFailed          — an audit ended without consensus.
//
// The robustness substrate adds four fault-path kinds, emitted only
// when something goes wrong on the wire (zero events on the fault-free
// hot path):
//
//   - MessageDropped — a frame was lost: inbox backpressure, a send
//     error to an unreachable peer, or an injected fault
//     (internal/faults).
//   - RetryAttempted — a sender re-issued an announcement frame or a
//     PoP RPC after a failed or unacknowledged attempt.
//   - PeerSuspected  — a node's health tracker opened the circuit on a
//     peer after consecutive transport failures; audits route around
//     it until a recovery probe succeeds.
//   - PeerRecovered  — a recovery probe succeeded and the peer was
//     re-admitted.
//
// Observers may be invoked concurrently from generation and audit
// worker pools; implementations must be safe for concurrent use.
// Observer calls sit on protocol hot paths — keep them cheap and
// non-blocking (count, sample or enqueue; never do I/O inline).
package events

import (
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/identity"
)

// BlockSealed reports that Node sealed (mined, signed, appended) its
// block Ref at logical time Slot; Digest is H(b^h), the identity its
// neighbors will learn.
type BlockSealed struct {
	Node   identity.NodeID
	Ref    block.Ref
	Digest digest.Digest
	Slot   uint32
}

// DigestAnnounced names one sender's announcement of one digest to one
// receiver.
//
// Deprecated: no driver emits it and Observer has no method for it;
// every delivery, of any length, is a DigestBatchDelivered.
type DigestAnnounced struct {
	From, To identity.NodeID
	Digest   digest.Digest
}

// DigestBatchDelivered reports that To ingested a whole batch of
// announcements — From[i] announced Digests[i] — into its neighbor
// cache A_i in one receiver-side pass. It fires once per receiver per
// flush (a simulator slot, or one wire announcement frame), after every
// entry cleared the neighbor check, so a sender observing the event
// knows its digests truly landed. The slices are shared with the
// delivery path and only valid for the duration of the call: copy
// them to retain, never mutate.
type DigestBatchDelivered struct {
	To      identity.NodeID
	From    []identity.NodeID
	Digests []digest.Digest
}

// AuditHop reports one REQ_CHILD probe: Validator asked Responder for
// a block whose Δ contains Target.
type AuditHop struct {
	Validator, Responder identity.NodeID
	Target               digest.Digest
}

// ConsensusReached reports a successful PoP audit of Target by
// Validator. Vouchers is shared with the audit result — treat it as
// read-only.
type ConsensusReached struct {
	Validator identity.NodeID
	Target    block.Ref
	Vouchers  []identity.NodeID
	PathLen   int
	Messages  int
	TrustHits int
}

// AuditFailed reports a PoP audit of Target by Validator that ended
// without γ+1 vouchers; Err carries the terminal error when one
// surfaced (e.g. core.ErrNoConsensus, a root mismatch, or a canceled
// context).
type AuditFailed struct {
	Validator identity.NodeID
	Target    block.Ref
	Err       error
}

// DropReason classifies why a frame was lost.
type DropReason uint8

const (
	// DropBackpressure: the receiver's inbox was full (transport
	// ErrBackpressure, on either fabric).
	DropBackpressure DropReason = iota + 1
	// DropUnreachable: the send failed outright — a dead dial target, a
	// reset connection, or a closed transport.
	DropUnreachable
	// DropInjected: an injected fault (internal/faults drop rate).
	DropInjected
	// DropPartition: an injected per-slot partition cut the link.
	DropPartition
	// DropCrash: the sender or receiver was inside an injected crash
	// window.
	DropCrash
)

// String names the reason for logs and metrics.
func (r DropReason) String() string {
	switch r {
	case DropBackpressure:
		return "backpressure"
	case DropUnreachable:
		return "unreachable"
	case DropInjected:
		return "injected"
	case DropPartition:
		return "partition"
	case DropCrash:
		return "crash"
	default:
		return "unknown"
	}
}

// MessageDropped reports one lost frame: From never reached To. It
// fires on whichever side observed the loss — the sender for send
// errors and injected faults, the receiver for inbound backpressure —
// so a frame is counted once per loss, and a retried frame that is
// lost again counts again.
type MessageDropped struct {
	From, To identity.NodeID
	// Kind is the wire kind of the lost frame (wire.Kind values; kept
	// as a raw byte so the event vocabulary stays codec-independent).
	Kind   uint8
	Reason DropReason
}

// RetryAttempted reports that Node re-issued traffic to Peer after a
// failed or unacknowledged attempt: an announcement frame (Announce
// true) or a PoP request. Attempt counts from 2 — the first try is not
// an event.
type RetryAttempted struct {
	Node, Peer identity.NodeID
	Announce   bool
	Attempt    int
}

// PeerSuspected reports that Node's health tracker opened the circuit
// on Peer after Failures consecutive transport failures; Node's audits
// route around Peer until a recovery probe succeeds.
type PeerSuspected struct {
	Node, Peer identity.NodeID
	Failures   int
}

// PeerRecovered reports that a recovery probe from Node to Peer
// succeeded and Peer was re-admitted to Node's routing.
type PeerRecovered struct {
	Node, Peer identity.NodeID
}

// Observer receives the typed event stream. Implementations must be
// safe for concurrent use; embed Nop to only handle the kinds you care
// about.
type Observer interface {
	OnBlockSealed(BlockSealed)
	OnDigestBatchDelivered(DigestBatchDelivered)
	OnAuditHop(AuditHop)
	OnConsensusReached(ConsensusReached)
	OnAuditFailed(AuditFailed)
	OnMessageDropped(MessageDropped)
	OnRetryAttempted(RetryAttempted)
	OnPeerSuspected(PeerSuspected)
	OnPeerRecovered(PeerRecovered)
}

// Nop is an Observer that ignores every event. Embed it to implement
// only a subset of the interface.
type Nop struct{}

func (Nop) OnBlockSealed(BlockSealed)                   {}
func (Nop) OnDigestBatchDelivered(DigestBatchDelivered) {}
func (Nop) OnAuditHop(AuditHop)                         {}
func (Nop) OnConsensusReached(ConsensusReached)         {}
func (Nop) OnAuditFailed(AuditFailed)                   {}
func (Nop) OnMessageDropped(MessageDropped)             {}
func (Nop) OnRetryAttempted(RetryAttempted)             {}
func (Nop) OnPeerSuspected(PeerSuspected)               {}
func (Nop) OnPeerRecovered(PeerRecovered)               {}

// multi fans one event stream out to several observers, in order.
type multi []Observer

func (m multi) OnBlockSealed(e BlockSealed) {
	for _, o := range m {
		o.OnBlockSealed(e)
	}
}

func (m multi) OnDigestBatchDelivered(e DigestBatchDelivered) {
	for _, o := range m {
		o.OnDigestBatchDelivered(e)
	}
}

func (m multi) OnAuditHop(e AuditHop) {
	for _, o := range m {
		o.OnAuditHop(e)
	}
}

func (m multi) OnConsensusReached(e ConsensusReached) {
	for _, o := range m {
		o.OnConsensusReached(e)
	}
}

func (m multi) OnAuditFailed(e AuditFailed) {
	for _, o := range m {
		o.OnAuditFailed(e)
	}
}

func (m multi) OnMessageDropped(e MessageDropped) {
	for _, o := range m {
		o.OnMessageDropped(e)
	}
}

func (m multi) OnRetryAttempted(e RetryAttempted) {
	for _, o := range m {
		o.OnRetryAttempted(e)
	}
}

func (m multi) OnPeerSuspected(e PeerSuspected) {
	for _, o := range m {
		o.OnPeerSuspected(e)
	}
}

func (m multi) OnPeerRecovered(e PeerRecovered) {
	for _, o := range m {
		o.OnPeerRecovered(e)
	}
}

// OnWALCommit forwards a WAL commit window to every member that
// watches commits (ledger.CommitObserver, matched structurally so this
// package needs no ledger import), so one merged observer carries both
// streams.
func (m multi) OnWALCommit(blocks int, bytes int64) {
	for _, o := range m {
		if co, ok := o.(interface{ OnWALCommit(int, int64) }); ok {
			co.OnWALCommit(blocks, bytes)
		}
	}
}

// Multi combines observers into one, dropping nils. It returns nil
// when nothing remains (callers treat a nil Observer as "no
// observation"), and the sole survivor unwrapped when only one does.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}
