// Package cluster runs live 2LDAG devices. It is layered in three:
//
//   - Device is one IoT device: the node runtime that seals S_i, keeps
//     its neighbors' digests A_i, acknowledges announcements and
//     answers PoP requests, plus its fault-wrapped transport, its
//     optional durable backend (WAL + snapshot, recovered on start),
//     WAL compaction, the batched-sync commit point, the announce →
//     acknowledge wait (AckTracker, Acks) and one close order.
//   - Host is one Device per OS process in a cross-host cluster: the
//     device behind its own TCP listener, a membership directory kept
//     over the wire (Hello/PeerList/Leave), joiner placement shared
//     with the in-process drivers, and the slot/seal/flush/audit verbs
//     a distributed harness drives over its control protocol.
//   - The public facade's Cluster (package twoldag) is many Devices in
//     one process on a shared fabric — in-memory or loopback TCP — with
//     one AckTracker fed by the receivers' own delivery events, where
//     Hosts acknowledge with wire-level DigestAck frames.
package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
)

// Waiter tracks one announcement's outstanding neighbor
// acknowledgements.
type Waiter struct {
	pending map[identity.NodeID]struct{}
	done    chan struct{}
}

// Done is closed once every expected neighbor acknowledged.
func (w *Waiter) Done() <-chan struct{} { return w.done }

// AckTracker resolves digest announcements to waiting submitters. It
// observes the receiver-side DigestAnnounced event from every node —
// delivered directly by in-process receivers, or synthesized from
// wire-level DigestAck frames in cross-process clusters — replacing
// sleep-polls over neighbor caches with event-driven acknowledgement.
type AckTracker struct {
	events.Nop
	mu      sync.Mutex
	waiters map[digest.Digest]*Waiter
}

// NewAckTracker builds an empty tracker.
func NewAckTracker() *AckTracker {
	return &AckTracker{waiters: make(map[digest.Digest]*Waiter)}
}

// Expect registers interest in d reaching every listed neighbor. Call
// before announcing so no acknowledgement can be missed.
func (t *AckTracker) Expect(d digest.Digest, neighbors []identity.NodeID) *Waiter {
	w := &Waiter{pending: make(map[identity.NodeID]struct{}, len(neighbors)), done: make(chan struct{})}
	for _, nb := range neighbors {
		w.pending[nb] = struct{}{}
	}
	if len(w.pending) == 0 {
		close(w.done)
		return w
	}
	t.mu.Lock()
	t.waiters[d] = w
	t.mu.Unlock()
	return w
}

// OnDigestAnnounced implements events.Observer: one neighbor cached d.
func (t *AckTracker) OnDigestAnnounced(e events.DigestAnnounced) {
	t.mu.Lock()
	t.resolve(e.Digest, e.To)
	t.mu.Unlock()
}

// OnDigestBatchDelivered implements events.Observer: one neighbor
// ingested a whole coalesced flush, acknowledging every digest it
// carried at once.
func (t *AckTracker) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	t.mu.Lock()
	for _, d := range e.Digests {
		t.resolve(d, e.To)
	}
	t.mu.Unlock()
}

// resolve marks d acknowledged by neighbor to. Callers hold t.mu.
func (t *AckTracker) resolve(d digest.Digest, to identity.NodeID) {
	if w, ok := t.waiters[d]; ok {
		delete(w.pending, to)
		if len(w.pending) == 0 {
			close(w.done)
			delete(t.waiters, d)
		}
	}
}

// Pending snapshots the neighbors that have not yet acknowledged d
// (nil once the waiter resolved), sorted for reproducible retry
// fan-out.
func (t *AckTracker) Pending(d digest.Digest) []identity.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.waiters[d]
	if !ok {
		return nil
	}
	out := make([]identity.NodeID, 0, len(w.pending))
	for id := range w.pending {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cancel abandons a waiter and reports which neighbors never
// acknowledged (empty when the waiter actually completed).
func (t *AckTracker) Cancel(d digest.Digest) []identity.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.waiters[d]
	if !ok {
		return nil
	}
	delete(t.waiters, d)
	missing := make([]identity.NodeID, 0, len(w.pending))
	for id := range w.pending {
		missing = append(missing, id)
	}
	return missing
}

// Await blocks until every expected neighbor acknowledged d or the
// context expires, reporting the still-missing neighbors on timeout.
func (t *AckTracker) Await(ctx context.Context, origin identity.NodeID, d digest.Digest, w *Waiter) error {
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		missing := t.Cancel(d)
		if len(missing) == 0 {
			return nil // acknowledged in the same instant
		}
		return fmt.Errorf("cluster: digest %s from %v unacknowledged by %v: %w", d, origin, missing, ctx.Err())
	}
}

// AwaitRetry is Await with a retry policy: each missing
// acknowledgement re-sends the digest — only to the neighbors still
// pending, via the resend callback — after an exponential backoff, up
// to MaxAttempts total announcement rounds. Retries are ack-driven,
// never blind: a loss-free run sends exactly one frame per link and
// takes the plain Await path. obs, when non-nil, sees each
// RetryAttempted.
func (t *AckTracker) AwaitRetry(
	ctx context.Context,
	origin identity.NodeID,
	d digest.Digest,
	w *Waiter,
	retry faults.RetryPolicy,
	obs events.Observer,
	resend func(ctx context.Context, nb identity.NodeID, d digest.Digest),
) error {
	if !retry.Enabled() {
		return t.Await(ctx, origin, d, w)
	}
	key := binary.LittleEndian.Uint64(d[:8])
	for attempt := 2; attempt <= retry.MaxAttempts; attempt++ {
		timer := time.NewTimer(retry.Backoff(attempt, key))
		select {
		case <-w.done:
			timer.Stop()
			return nil
		case <-ctx.Done():
			timer.Stop()
			return t.Await(ctx, origin, d, w) // reports the missing set
		case <-timer.C:
		}
		pending := t.Pending(d)
		if len(pending) == 0 {
			// Resolved in the same instant; the waiter is gone, so done
			// is closed (or about to be).
			return t.Await(ctx, origin, d, w)
		}
		for _, nb := range pending {
			if obs != nil {
				obs.OnRetryAttempted(events.RetryAttempted{
					Node: origin, Peer: nb, Announce: true, Attempt: attempt,
				})
			}
			resend(ctx, nb, d)
		}
	}
	return t.Await(ctx, origin, d, w)
}
