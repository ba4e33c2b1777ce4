package node

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/events"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// batchRecorder captures receiver-side batch deliveries (copying the
// shared slices, as the event contract requires) and signals each one
// so tests can wait event-driven instead of polling caches.
type batchRecorder struct {
	events.Nop
	mu      sync.Mutex
	batches map[identity.NodeID][][]digest.Digest // by receiver
	ch      chan identity.NodeID
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{ch: make(chan identity.NodeID, 64)}
}

func (r *batchRecorder) OnDigestBatchDelivered(e events.DigestBatchDelivered) {
	r.mu.Lock()
	if r.batches == nil {
		r.batches = make(map[identity.NodeID][][]digest.Digest)
	}
	r.batches[e.To] = append(r.batches[e.To], append([]digest.Digest(nil), e.Digests...))
	r.mu.Unlock()
	r.ch <- e.To
}

// TestAnnounceBatchCoalesces seals a run of blocks on one node and
// flushes them with AnnounceBatch: every neighbor must receive one
// announcement frame carrying all digests in seal order, and its A_i
// must end on the newest digest.
func TestAnnounceBatchCoalesces(t *testing.T) {
	g := topology.PaperFig6() // A-B-C chain
	params := block.DefaultParams()
	params.Difficulty = 2
	var pairs []identity.KeyPair
	for _, id := range g.Nodes() {
		pairs = append(pairs, identity.Deterministic(id, 500))
	}
	ring, err := identity.RingFor(pairs)
	if err != nil {
		t.Fatal(err)
	}
	netw := transport.NewNetwork()
	defer netw.Close()
	rec := newBatchRecorder()
	nodes := make(map[identity.NodeID]*Node)
	for _, kp := range pairs {
		ep, err := netw.Endpoint(kp.ID)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Key: kp, Params: params, Topo: g, Ring: ring, Transport: ep,
			Gamma: 1, Observer: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[kp.ID] = n
	}

	// B (node 1) seals three blocks, then flushes once.
	origin := identity.NodeID(1)
	var ds []digest.Digest
	for i := 0; i < 3; i++ {
		_, d, err := nodes[origin].GenerateLocal([]byte(fmt.Sprintf("body %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	nodes[origin].AnnounceBatch(context.Background(), ds)

	// Event-driven wait: one DigestBatchDelivered per neighbor. The
	// event fires after the batch entered A_i, so by the time both
	// arrive the caches are already final.
	for pending := len(g.Neighbors(origin)); pending > 0; pending-- {
		select {
		case <-rec.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d neighbors ingested the batch", len(g.Neighbors(origin))-pending, len(g.Neighbors(origin)))
		}
	}
	newest := ds[len(ds)-1]
	for _, nb := range g.Neighbors(origin) {
		if got, ok := nodes[nb].Engine().Cache().Get(origin); !ok || got != newest {
			t.Fatalf("receiver %v cache did not end on the newest digest", nb)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, nb := range g.Neighbors(origin) {
		got := rec.batches[nb]
		if len(got) != 1 {
			t.Fatalf("receiver %v saw %d batch deliveries, want 1 coalesced frame", nb, len(got))
		}
		if len(got[0]) != len(ds) {
			t.Fatalf("receiver %v batch carried %d digests, want %d", nb, len(got[0]), len(ds))
		}
		for i := range ds {
			if got[0][i] != ds[i] {
				t.Fatalf("receiver %v digest %d out of seal order", nb, i)
			}
		}
	}
}

// TestBatchCountsAgainstRateGuard pins the DoS defense on the batched
// path: a single frame carrying more digests than AnnounceLimit bans
// the sender just like the equivalent flood of one-digest frames.
func TestBatchCountsAgainstRateGuard(t *testing.T) {
	g := topology.PaperFig6()
	params := block.DefaultParams()
	params.Difficulty = 2
	kpA := identity.Deterministic(0, 1)
	kpB := identity.Deterministic(1, 1)
	kpC := identity.Deterministic(2, 1)
	ring, err := identity.RingFor([]identity.KeyPair{kpA, kpB, kpC})
	if err != nil {
		t.Fatal(err)
	}
	netw := transport.NewNetwork()
	defer netw.Close()
	log := newDeliveryLog()
	epB, _ := netw.Endpoint(1)
	nodeB, err := New(Config{
		Key: kpB, Params: params, Topo: g, Ring: ring, Transport: epB,
		Gamma: 1, AnnounceWindow: time.Second, AnnounceLimit: 5,
		Observer: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	epA, _ := netw.Endpoint(0)
	defer epA.Close()
	epC, _ := netw.Endpoint(2)
	defer epC.Close()
	ctx := context.Background()
	var flood []digest.Digest
	for i := 0; i < 50; i++ {
		flood = append(flood, digest.Sum([]byte{byte(i)}))
	}
	msg := wire.NewDigestBatch(0, 1, flood, 1)
	if err := epA.Send(ctx, 1, msg); err != nil {
		t.Fatal(err)
	}
	// Sentinel from B's other neighbor: FIFO inbox plus serial dispatch
	// means its ingest event proves the flood frame was already judged.
	sentinel := digest.Sum([]byte("batch sentinel"))
	if err := epC.Send(ctx, 1, wire.NewDigestAnnounce(2, 1, sentinel, 2)); err != nil {
		t.Fatal(err)
	}
	log.wait(t, 2, 1, sentinel)
	if !nodeB.Blacklist().Banned(0) {
		t.Fatal("batch flooder never banned")
	}
	if _, ok := nodeB.Engine().Cache().Get(0); ok {
		t.Fatal("over-limit batch still updated the digest cache")
	}
}
