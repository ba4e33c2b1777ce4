package main

import (
	"sort"
	"sync"
	"time"

	"github.com/twoldag/twoldag"
)

// evKind tags a recorded observer event.
type evKind uint8

const (
	evSealed evKind = iota + 1
	evDelivered
	evHop
	evVerdict
	evCommit
	evDropped
	evRetry
)

// event is one timestamped observer callback. Spans are built from
// these after the run; nothing is derived while the program runs.
type event struct {
	kind   evKind
	at     time.Duration // since the recorder's epoch
	node   twoldag.NodeID
	slot   uint32
	n      int  // digests in a delivery, messages of a consensus
	trust  int  // trust-store hits of a consensus
	frames int  // distinct senders in a delivery (one frame each)
	single bool // a singleton DigestAnnounce frame rather than a DigestBatch
}

// batch is a captured receiver-side DigestBatchDelivered, kept as a
// replay input for the engine-ingest layer.
type batch struct {
	to   twoldag.NodeID
	from []twoldag.NodeID
	ds   []twoldag.Digest
}

// recorder is the benchmark's observer: it timestamps the public
// event stream (twoldag.WithObserver) and the WAL commit windows
// (ledger.CommitObserver, which the facade forwards to any observer
// implementing OnWALCommit). It keeps everything in memory and is
// read once the run is over.
type recorder struct {
	twoldag.NopObserver
	epoch time.Time

	mu      sync.Mutex
	evs     []event
	batches []batch
}

// maxBatches bounds the captured ingest replay inputs.
const maxBatches = 64

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), evs: make([]event, 0, 1<<16)}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(e event) {
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
}

func (r *recorder) OnBlockSealed(e twoldag.BlockSealed) {
	r.add(event{kind: evSealed, at: r.now(), node: e.Node, slot: e.Slot})
}

// OnDigestAnnounced records a singleton announcement delivery — what
// a sender with one digest to flush puts on the wire.
func (r *recorder) OnDigestAnnounced(e twoldag.DigestAnnounced) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evs = append(r.evs, event{kind: evDelivered, at: at, node: e.To, n: 1, frames: 1, single: true})
	if len(r.batches) < maxBatches {
		r.batches = append(r.batches, batch{to: e.To, from: []twoldag.NodeID{e.From}, ds: []twoldag.Digest{e.Digest}})
	}
}

func (r *recorder) OnDigestBatchDelivered(e twoldag.DigestBatchDelivered) {
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	senders := map[twoldag.NodeID]bool{}
	for _, f := range e.From {
		senders[f] = true
	}
	r.evs = append(r.evs, event{kind: evDelivered, at: at, node: e.To, n: len(e.Digests), frames: len(senders)})
	if len(r.batches) < maxBatches {
		r.batches = append(r.batches, batch{
			to:   e.To,
			from: append([]twoldag.NodeID(nil), e.From...),
			ds:   append([]twoldag.Digest(nil), e.Digests...),
		})
	}
}

func (r *recorder) OnAuditHop(e twoldag.AuditHop) {
	r.add(event{kind: evHop, at: r.now(), node: e.Validator})
}

func (r *recorder) OnConsensusReached(e twoldag.ConsensusReached) {
	r.add(event{kind: evVerdict, at: r.now(), node: e.Validator, n: e.Messages, trust: e.TrustHits})
}

func (r *recorder) OnAuditFailed(e twoldag.AuditFailed) {
	r.add(event{kind: evVerdict, at: r.now(), node: e.Validator})
}

func (r *recorder) OnMessageDropped(e twoldag.MessageDropped) {
	r.add(event{kind: evDropped, at: r.now(), node: e.From})
}

func (r *recorder) OnRetryAttempted(e twoldag.RetryAttempted) {
	r.add(event{kind: evRetry, at: r.now(), node: e.Node})
}

// OnWALCommit implements ledger.CommitObserver: one event per commit
// window (one fsync).
func (r *recorder) OnWALCommit(int, int64) {
	r.add(event{kind: evCommit, at: r.now()})
}

// events returns the recorded events sorted by time.
func (r *recorder) events() []event {
	r.mu.Lock()
	evs := append([]event(nil), r.evs...)
	r.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

func (r *recorder) captured() []batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]batch(nil), r.batches...)
}

// between returns the events with from <= at < to; evs must be
// sorted by time (recorder.events).
func between(evs []event, from, to time.Duration) []event {
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].at >= from })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].at >= to })
	return evs[lo:hi]
}

func countKind(evs []event, k evKind) int {
	n := 0
	for _, e := range evs {
		if e.kind == k {
			n++
		}
	}
	return n
}

// auditStats are PoP spans built from AuditHop and verdict events: a
// validator runs one audit at a time (lanes on the live driver, the
// per-validator lock in the simulator), so its hops up to its next
// verdict belong to one audit.
type auditStats struct {
	hops            []float64 // us from each AuditHop to the validator's next hop or verdict
	nHops, verdicts int
	msgs, trust     int
}

func auditSpans(evs []event) auditStats {
	var st auditStats
	last := map[twoldag.NodeID]time.Duration{}
	for _, e := range evs {
		switch e.kind {
		case evHop:
			if at, ok := last[e.node]; ok {
				st.hops = append(st.hops, us(e.at-at))
			}
			last[e.node] = e.at
			st.nHops++
		case evVerdict:
			if at, ok := last[e.node]; ok {
				st.hops = append(st.hops, us(e.at-at))
			}
			delete(last, e.node)
			st.verdicts++
			st.msgs += e.n
			st.trust += e.trust
		}
	}
	return st
}

// setLayers reports the audit spans and per-audit counts. Messages are
// requests plus replies, as ConsensusReached counts them; failed
// audits carry no message count.
func (st auditStats) setLayers(out *outcome) {
	n := float64(st.verdicts)
	out.layers["core.hop_us_p50"] = quantile(st.hops, 0.5)
	out.layers["core.hop_us_p99"] = quantile(st.hops, 0.99)
	out.layers["core.hops_per_audit"] = ratio(float64(st.nHops), n)
	out.layers["core.msgs_per_audit"] = ratio(float64(st.msgs), n)
	out.layers["core.trust_hits_per_audit"] = ratio(float64(st.trust), n)
}
