package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/core"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/ledger"
	"github.com/twoldag/twoldag/internal/pow"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// Layer replays: each times one public call of a layer on inputs the
// workload itself produced (sealed blocks, delivered digest batches),
// so the per-layer costs describe the same data the end-to-end run
// moved. Every replay reports the median over its repetitions.

// replayInputs is what a workload captured for the replays.
type replayInputs struct {
	params  block.Params
	seed    int64
	topo    *twoldag.Topology
	ring    *identity.Ring
	blocks  []*block.Block // a sample of sealed blocks, any origin
	chain   []*block.Block // one node's blocks from seq 0, in order
	batches []batch        // receiver-side digest batches
}

// minReplay is the least wall time a replay spends per measured call
// kind, so short calls repeat enough for a steady median.
const minReplay = 30 * time.Millisecond

// timeEach runs fn over inputs 0..n-1 round-robin until minReplay has
// passed and at least n calls ran, and returns the median call time.
func timeEach(n int, fn func(i int) error) (time.Duration, error) {
	if n == 0 {
		return 0, nil
	}
	var samples []float64
	start := time.Now()
	for i := 0; i < n || time.Since(start) < minReplay; i++ {
		t0 := time.Now()
		if err := fn(i % n); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	return time.Duration(quantile(samples, 0.5)), nil
}

func ringFor(topo *twoldag.Topology, seed int64) (*identity.Ring, error) {
	var pairs []identity.KeyPair
	for _, id := range topo.Nodes() {
		pairs = append(pairs, identity.Deterministic(id, seed))
	}
	return identity.RingFor(pairs)
}

// replayLayers fills the replay-based layer metrics.
func replayLayers(in replayInputs, dir string, out *outcome) error {
	p := in.params
	key := func(id twoldag.NodeID) identity.KeyPair { return identity.Deterministic(id, in.seed) }
	bs := in.blocks

	d, err := timeEach(len(bs), func(i int) error { _, err := p.BodyRoot(bs[i].Body); return err })
	if err != nil {
		return fmt.Errorf("merkle replay: %w", err)
	}
	out.layers["block.merkle_root_us"] = us(d)

	build := func(diff pow.Difficulty) (time.Duration, error) {
		q := p
		q.Difficulty = diff
		return timeEach(len(bs), func(i int) error {
			h := &bs[i].Header
			_, err := q.Build(key(h.Origin), h.Time, h.Seq, bs[i].Body, h.Digests)
			return err
		})
	}
	// PoW cost at the paper's ρ=8 on these inputs, whatever difficulty
	// the workload seals at.
	mined, err := build(pow.DefaultDifficulty)
	if err != nil {
		return fmt.Errorf("pow replay: %w", err)
	}
	plain, err := build(0)
	if err != nil {
		return fmt.Errorf("pow replay: %w", err)
	}
	out.layers["block.pow_us"] = max(0, us(mined-plain))

	d, _ = timeEach(len(bs), func(i int) error {
		h := &bs[i].Header
		key(h.Origin).Sign(h.SigPreimage())
		return nil
	})
	out.layers["block.sign_us"] = us(d)

	d, err = timeEach(len(bs), func(i int) error {
		h := bs[i].Header.Clone() // uncached: a fresh header every call
		return p.ValidateHeader(h, in.ring)
	})
	if err != nil {
		return fmt.Errorf("validate replay: %w", err)
	}
	out.layers["block.validate_header_us"] = us(d)

	if err := replayLedger(in, dir, out); err != nil {
		return err
	}

	if len(in.batches) > 0 {
		engines := map[twoldag.NodeID]*core.Engine{}
		for _, b := range in.batches {
			if engines[b.to] == nil {
				e, err := core.NewEngine(key(b.to), p, in.topo)
				if err != nil {
					return err
				}
				engines[b.to] = e
			}
		}
		bt := in.batches
		d, err = timeEach(len(bt), func(i int) error { return engines[bt[i].to].OnDigestBatch(bt[i].from, bt[i].ds) })
		if err != nil {
			return fmt.Errorf("ingest replay: %w", err)
		}
		out.layers["core.ingest_us"] = us(d)

		d, err = timeEach(len(bt), func(i int) error {
			m, err := wire.Decode(wire.NewDigestBatch(bt[i].from[0], bt[i].to, bt[i].ds, uint64(i)).Encode())
			if err != nil {
				return err
			}
			_, err = m.DecodeDigestBatchPayload()
			return err
		})
		if err != nil {
			return fmt.Errorf("digest batch codec replay: %w", err)
		}
		out.layers["wire.digest_batch_codec_ns"] = float64(d)
	}

	d, err = timeEach(len(bs), func(i int) error {
		h := &bs[i].Header
		req := wire.NewReqChild(1, h.Origin, h.Root, uint64(i+1), uint64(i+1))
		m, err := wire.Decode(wire.NewRpyChild(req, h).Encode())
		if err != nil {
			return err
		}
		_, err = m.DecodeHeaderPayload()
		return err
	})
	if err != nil {
		return fmt.Errorf("header reply codec replay: %w", err)
	}
	out.layers["wire.header_reply_codec_ns"] = float64(d)

	if err := replayTransport(in, out); err != nil {
		return err
	}
	return nil
}

// replayLedger times the durable backend on the workload's blocks:
// staging one block record, compacting a 32-block WAL, and recovering
// a node's chain with full re-verification.
func replayLedger(in replayInputs, dir string, out *outcome) error {
	open := func(sub string, owner twoldag.NodeID) (*ledger.FileBackend, *ledger.NodeState, error) {
		fb, err := ledger.OpenFileBackend(filepath.Join(dir, sub), ledger.WithSyncPolicy(ledger.SyncBatch()))
		if err != nil {
			return nil, nil, err
		}
		st, err := fb.Recover(ledger.RecoverOptions{Owner: owner, Params: in.params})
		if err != nil {
			fb.Close()
			return nil, nil, err
		}
		st.Attach(fb) // Store.Append now journals through the backend
		return fb, st, nil
	}
	bs := in.blocks
	fb, _, err := open("replay-log", bs[0].Header.Origin)
	if err != nil {
		return fmt.Errorf("log replay: %w", err)
	}
	d, err := timeEach(len(bs), func(i int) error { return fb.LogBlock(bs[i]) })
	if cerr := fb.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("log replay: %w", err)
	}
	out.layers["ledger.log_block_us"] = us(d)

	chain := in.chain
	owner := chain[0].Header.Origin
	n := min(32, len(chain))
	var compacts []float64
	for rep := 0; rep < 5; rep++ {
		fb, st, err := open(fmt.Sprintf("replay-compact-%d", rep), owner)
		if err != nil {
			return fmt.Errorf("compact replay: %w", err)
		}
		for _, b := range chain[:n] {
			if err := st.Store.Append(b); err != nil {
				fb.Close()
				return fmt.Errorf("compact replay: %w", err)
			}
		}
		if err := fb.Commit(); err != nil {
			fb.Close()
			return fmt.Errorf("compact replay: %w", err)
		}
		t0 := time.Now()
		err = fb.Compact(func() (*ledger.NodeState, error) { return st, nil })
		compacts = append(compacts, ms(time.Since(t0)))
		if cerr := fb.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("compact replay: %w", err)
		}
	}
	out.layers["ledger.compact_ms"] = quantile(compacts, 0.5)

	// Recovery: a WAL holding the node's whole captured chain.
	fb, st, err := open("replay-recover", owner)
	if err != nil {
		return fmt.Errorf("recover replay: %w", err)
	}
	for _, b := range chain {
		if err := st.Store.Append(b); err != nil {
			fb.Close()
			return fmt.Errorf("recover replay: %w", err)
		}
	}
	if err := fb.Close(); err != nil {
		return fmt.Errorf("recover replay: %w", err)
	}
	var recovers []float64
	for rep := 0; rep < 3; rep++ {
		fb, err := ledger.OpenFileBackend(filepath.Join(dir, "replay-recover"), ledger.WithSyncPolicy(ledger.SyncBatch()))
		if err != nil {
			return fmt.Errorf("recover replay: %w", err)
		}
		t0 := time.Now()
		st, err := fb.Recover(ledger.RecoverOptions{Owner: owner, Params: in.params, Ring: in.ring})
		el := time.Since(t0)
		fb.Close()
		if err != nil {
			return fmt.Errorf("recover replay: %w", err)
		}
		if st.Store.Len() != len(chain) {
			return fmt.Errorf("recover replay: %d blocks back, logged %d", st.Store.Len(), len(chain))
		}
		recovers = append(recovers, us(el)/float64(len(chain)))
	}
	out.layers["ledger.recover_us_per_block"] = quantile(recovers, 0.5)
	return os.RemoveAll(filepath.Join(dir, "replay-recover"))
}

// replayTransport times one frame round trip on each fabric: a
// DigestBatch and its DigestAck between two loopback TCPNodes, and a
// REQ_CHILD/RPY_CHILD RPC.Call between two in-memory Endpoints.
func replayTransport(in replayInputs, out *outcome) error {
	const a, b = twoldag.NodeID(1), twoldag.NodeID(2)
	var ds []twoldag.Digest
	if len(in.batches) > 0 {
		ds = in.batches[0].ds
	} else {
		ds = []twoldag.Digest{in.blocks[0].Header.Hash()}
	}
	ta, err := transport.ListenTCP(a, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer ta.Close()
	tb, err := transport.ListenTCP(b, "127.0.0.1:0", map[twoldag.NodeID]string{a: ta.Addr()})
	if err != nil {
		return err
	}
	defer tb.Close()
	ta.AddPeer(b, tb.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for env := range tb.Inbox() {
			if err := tb.Send(ctx, env.From, wire.NewDigestAck(env.Msg)); err != nil {
				return
			}
		}
	}()
	d, err := timeEach(200, func(i int) error {
		if err := ta.Send(ctx, b, wire.NewDigestBatch(a, b, ds, uint64(i+1))); err != nil {
			return err
		}
		select {
		case <-ta.Inbox():
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	tb.Close()
	<-echoDone
	if err != nil {
		return fmt.Errorf("tcp replay: %w", err)
	}
	out.layers["transport.tcp_frame_rtt_us"] = us(d)

	net := transport.NewNetwork()
	defer net.Close()
	ea, err := net.Endpoint(a)
	if err != nil {
		return err
	}
	eb, err := net.Endpoint(b)
	if err != nil {
		return err
	}
	h := &in.blocks[0].Header
	var server *transport.RPC
	server = transport.NewRPC(eb, func(env transport.Envelope) {
		_ = server.Reply(ctx, env.From, wire.NewRpyChild(env.Msg, h))
	}, 0)
	defer server.Close()
	client := transport.NewRPC(ea, nil, 0)
	defer client.Close()
	d, err = timeEach(200, func(int) error {
		_, err := client.Call(ctx, b, func(corr, nonce uint64) *wire.Message {
			return wire.NewReqChild(a, b, h.Root, corr, nonce)
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("rpc replay: %w", err)
	}
	out.layers["transport.mem_rpc_rtt_us"] = us(d)
	return nil
}
