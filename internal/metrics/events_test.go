package metrics

import (
	"strings"
	"testing"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
)

// EventCounters must keep satisfying the ledger's commit-observer
// contract structurally (the package itself stays ledger-free).
var _ ledger.CommitObserver = (*EventCounters)(nil)

// TestEventCountersBatchDelivery pins the delivery aggregation: one
// batch counts as one flush plus len(Digests) accepted deliveries,
// whatever its length.
func TestEventCountersBatchDelivery(t *testing.T) {
	var c EventCounters
	c.OnDigestBatchDelivered(events.DigestBatchDelivered{To: 2, From: []identity.NodeID{1}, Digests: make([]digest.Digest, 1)})
	c.OnDigestBatchDelivered(events.DigestBatchDelivered{
		To:      2,
		From:    []identity.NodeID{1, 3, 4},
		Digests: make([]digest.Digest, 3),
	})
	if got := c.DigestsAnnounced(); got != 4 {
		t.Fatalf("DigestsAnnounced = %d, want 1 + 3 = 4", got)
	}
	if got := c.DigestBatchesDelivered(); got != 2 {
		t.Fatalf("DigestBatchesDelivered = %d, want 2", got)
	}
}

// TestWritePrometheusGolden pins the text exposition format byte for
// byte: HELP, TYPE and sample lines for every counter, in a fixed
// order, so scrapers (and dashboards built on them) never see churn.
func TestWritePrometheusGolden(t *testing.T) {
	var c EventCounters
	for i := 0; i < 3; i++ {
		c.OnBlockSealed(events.BlockSealed{})
	}
	c.OnDigestBatchDelivered(events.DigestBatchDelivered{From: []identity.NodeID{1}, Digests: make([]digest.Digest, 1)})
	c.OnAuditHop(events.AuditHop{})
	c.OnConsensusReached(events.ConsensusReached{})
	c.OnAuditFailed(events.AuditFailed{})
	c.OnMessageDropped(events.MessageDropped{Reason: events.DropBackpressure})
	c.OnMessageDropped(events.MessageDropped{Reason: events.DropInjected})
	c.OnRetryAttempted(events.RetryAttempted{Attempt: 2})
	c.OnPeerSuspected(events.PeerSuspected{Failures: 2})
	c.OnPeerRecovered(events.PeerRecovered{})
	c.OnWALCommit(1, 120)   // SyncAlways-shaped window
	c.OnWALCommit(8, 960)   // boundary lands in the le="8" bucket
	c.OnWALCommit(40, 4800) // le="64"

	var sb strings.Builder
	if err := c.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP twoldag_blocks_sealed_total Blocks sealed (mined, signed, appended) across the deployment.
# TYPE twoldag_blocks_sealed_total counter
twoldag_blocks_sealed_total 3
# HELP twoldag_digests_announced_total Digest announcements accepted into neighbor caches (receiver side).
# TYPE twoldag_digests_announced_total counter
twoldag_digests_announced_total 1
# HELP twoldag_digest_batches_delivered_total Batched announcement flushes ingested (one per receiver per flush).
# TYPE twoldag_digest_batches_delivered_total counter
twoldag_digest_batches_delivered_total 1
# HELP twoldag_audit_hops_total REQ_CHILD probes issued by PoP validators.
# TYPE twoldag_audit_hops_total counter
twoldag_audit_hops_total 1
# HELP twoldag_consensus_reached_total Audits that collected gamma+1 distinct vouchers.
# TYPE twoldag_consensus_reached_total counter
twoldag_consensus_reached_total 1
# HELP twoldag_audits_failed_total Audits that ended without consensus.
# TYPE twoldag_audits_failed_total counter
twoldag_audits_failed_total 1
# HELP twoldag_messages_dropped_total Frames lost to backpressure, unreachable peers or injected faults.
# TYPE twoldag_messages_dropped_total counter
twoldag_messages_dropped_total 2
# HELP twoldag_retries_attempted_total Announcement frames and PoP requests re-issued after a failed attempt.
# TYPE twoldag_retries_attempted_total counter
twoldag_retries_attempted_total 1
# HELP twoldag_peers_suspected_total Circuit-breaker openings after consecutive transport failures.
# TYPE twoldag_peers_suspected_total counter
twoldag_peers_suspected_total 1
# HELP twoldag_peers_recovered_total Recovery probes that re-admitted a suspected peer.
# TYPE twoldag_peers_recovered_total counter
twoldag_peers_recovered_total 1
# HELP twoldag_wal_fsyncs_total Durable WAL commit windows completed (one fsync each).
# TYPE twoldag_wal_fsyncs_total counter
twoldag_wal_fsyncs_total 3
# HELP twoldag_wal_bytes_written_total WAL bytes made durable across all commit windows.
# TYPE twoldag_wal_bytes_written_total counter
twoldag_wal_bytes_written_total 5880
# HELP twoldag_wal_commit_window_blocks Block records acknowledged per WAL commit window.
# TYPE twoldag_wal_commit_window_blocks histogram
twoldag_wal_commit_window_blocks_bucket{le="1"} 1
twoldag_wal_commit_window_blocks_bucket{le="2"} 1
twoldag_wal_commit_window_blocks_bucket{le="4"} 1
twoldag_wal_commit_window_blocks_bucket{le="8"} 2
twoldag_wal_commit_window_blocks_bucket{le="16"} 2
twoldag_wal_commit_window_blocks_bucket{le="32"} 2
twoldag_wal_commit_window_blocks_bucket{le="64"} 3
twoldag_wal_commit_window_blocks_bucket{le="+Inf"} 3
twoldag_wal_commit_window_blocks_sum 49
twoldag_wal_commit_window_blocks_count 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition diverged from golden output:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
