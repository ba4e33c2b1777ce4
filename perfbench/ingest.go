package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
)

// ingest: the durable write path over loopback TCP. One client submits
// one seeded reading per node per slot through SubmitBatch, closed
// loop; every node journals to a WAL. No audits run.
type ingestSize struct {
	nodes, gamma, reading, warmup, setups int
	// slotsPerSecond sizes the timed phase: -seconds x slotsPerSecond
	// slots, about -seconds of wall time on a 2-CPU machine.
	slotsPerSecond float64
}

// ingestWindow is the slot count of one window of the gated figures.
// The gated tail is a window's p75: p90 and above swung by more than
// any bound between runs, as this machine's speed drifted; the
// whole-run p99 prints as a headline figure.
const ingestWindow = 100

// The WAL lives inside the checkout, on whatever filesystem that is —
// typically a disk shared with other tenants, where fsync times vary
// by more than any gate could tolerate. So the timed phase never waits
// on the disk: records stage into the WAL file (page cache) and the
// commit window closes at Close, and compaction, which fsyncs a fresh
// snapshot, is held off for the run. The write path up to the WAL
// write, WAL replay on recovery, and the layer replays of LogBlock,
// Compact and Recover are still measured.
const (
	walCommitEvery = time.Hour // longer than any run
	noCompaction   = 1 << 30   // blocks per node before a compaction
)

func ingestSizes(short bool) ingestSize {
	if short {
		return ingestSize{nodes: 8, gamma: 2, reading: 4096, warmup: 2, setups: 1, slotsPerSecond: 20}
	}
	return ingestSize{nodes: 24, gamma: 4, reading: 16 << 10, warmup: 8, setups: 5, slotsPerSecond: 80}
}

// ingestPass is one build-warm-measure cycle of the ingest workload.
type ingestPass struct {
	setup    time.Duration      // median over the setups
	slots    []time.Duration    // per timed slot: SubmitBatch latency
	starts   []time.Duration    // per timed slot: start, from the timed phase's start
	spans    [][2]time.Duration // per timed slot: recorder-relative start, end
	wall     time.Duration
	failed   int64
	lastSlot uint32 // slots submitted in total (warm-up included)
	headers  map[block.Ref]*block.Header
	heapMB   float64
	recover  time.Duration
	before   map[twoldag.NodeID]twoldag.Digest
	after    map[twoldag.NodeID]twoldag.Digest
	dataDir  string
	chain    []*block.Block
	sample   []*block.Block
	walBytes int64 // WAL bytes on disk after Close, all nodes
}

func ingestOptions(sz ingestSize, topo *twoldag.Topology, seed int64, dir string, rec *recorder) []twoldag.Option {
	opts := []twoldag.Option{
		twoldag.WithTopology(topo),
		twoldag.WithGamma(sz.gamma),
		twoldag.WithSeed(seed),
		twoldag.WithTransport(twoldag.TCP),
		twoldag.WithDataDir(dir),
		twoldag.WithSyncPolicy(twoldag.SyncInterval(walCommitEvery)),
		twoldag.WithCompactEvery(noCompaction),
	}
	if rec != nil {
		opts = append(opts, twoldag.WithObserver(rec))
	}
	return opts
}

func runIngestPass(cfg runConfig, sz ingestSize, topo *twoldag.Topology, slots int, rec *recorder, tag string) (*ingestPass, error) {
	ctx := context.Background()
	ids := topo.Nodes()
	p := &ingestPass{headers: map[block.Ref]*block.Header{}}
	var rt twoldag.Runtime
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if rt != nil {
			if err := rt.Close(); err != nil {
				return nil, err
			}
		}
		p.dataDir = filepath.Join(cfg.dir, fmt.Sprintf("%s-data-%d", tag, i))
		var r *recorder
		if i == sz.setups-1 {
			r = rec // only the measured deployment is traced
		}
		t0 := time.Now()
		var err error
		rt, err = twoldag.New(ingestOptions(sz, topo, cfg.seed, p.dataDir, r)...)
		if err != nil {
			return nil, err
		}
		for s := 0; s < sz.warmup; s++ {
			rt.AdvanceSlot()
			if _, err := rt.SubmitBatch(ctx, slotBatch(cfg.seed, rt.Slot(), ids, sz.reading)); err != nil {
				rt.Close()
				return nil, fmt.Errorf("warm-up slot: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < sz.setups-1 {
			if err := rt.Close(); err != nil {
				return nil, err
			}
			rt = nil
			if err := os.RemoveAll(p.dataDir); err != nil {
				return nil, err
			}
		}
	}
	p.setup = time.Duration(quantile(setups, 0.5) * float64(time.Second))
	defer func() {
		if rt != nil {
			rt.Close()
		}
	}()

	// Timed phase: closed loop, one slot at a time, a fixed number of
	// slots so the stored data (heap_mb, WAL, recovery) and every count
	// are the same on every run of a seed.
	start := time.Now()
	for s := 0; s < slots; s++ {
		rt.AdvanceSlot()
		batch := slotBatch(cfg.seed, rt.Slot(), ids, sz.reading)
		var s0 time.Duration
		if rec != nil {
			s0 = rec.now()
		}
		t0 := time.Now()
		_, err := rt.SubmitBatch(ctx, batch)
		el := time.Since(t0)
		p.starts = append(p.starts, t0.Sub(start))
		if rec != nil {
			p.spans = append(p.spans, [2]time.Duration{s0, rec.now()})
		}
		if err != nil {
			p.failed++
			break
		}
		p.slots = append(p.slots, el)
	}
	p.wall = time.Since(start)
	p.heapMB = heapMB()
	p.lastSlot = rt.Slot()

	// Capture every sealed header (for the simulator oracle), replay
	// inputs, and each node's state digest before shutdown.
	cl, ok := rt.(*twoldag.Cluster)
	if !ok {
		return nil, errors.New("ingest runtime is not a live cluster")
	}
	p.before = map[twoldag.NodeID]twoldag.Digest{}
	for _, id := range ids {
		d, err := cl.StateDigest(id)
		if err != nil {
			return nil, err
		}
		p.before[id] = d
		for seq := uint32(0); ; seq++ {
			b, err := rt.Block(block.Ref{Node: id, Seq: seq})
			if err != nil {
				break
			}
			p.headers[b.Header.Ref()] = b.Header.CloneSealed()
			if id == ids[0] {
				p.chain = append(p.chain, b)
			}
			if seq%16 == 0 && len(p.sample) < 64 {
				p.sample = append(p.sample, b)
			}
		}
	}
	if err := rt.Close(); err != nil {
		return nil, err
	}
	rt = nil
	wals, err := filepath.Glob(filepath.Join(p.dataDir, "node-*", "wal.log"))
	if err != nil {
		return nil, err
	}
	for _, w := range wals {
		fi, err := os.Stat(w)
		if err != nil {
			return nil, err
		}
		p.walBytes += fi.Size()
	}

	// Cold start: New on the final data dir replays snapshot + WAL with
	// re-verification.
	t0 := time.Now()
	re, err := twoldag.New(ingestOptions(sz, topo, cfg.seed, p.dataDir, nil)...)
	if err != nil {
		return nil, fmt.Errorf("reopening data dir: %w", err)
	}
	p.recover = time.Since(t0)
	p.after = map[twoldag.NodeID]twoldag.Digest{}
	for _, id := range ids {
		d, err := re.(*twoldag.Cluster).StateDigest(id)
		if err != nil {
			re.Close()
			return nil, err
		}
		p.after[id] = d
	}
	if err := re.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// simOracle replays slots 1..lastSlot of seeded submissions on the
// simulator driver and returns every sealed header hash.
func simOracle(topo *twoldag.Topology, gamma int, seed int64, lastSlot uint32, readingBytes int) (map[block.Ref]twoldag.Digest, error) {
	rt, err := twoldag.New(twoldag.WithSimulator(), twoldag.WithTopology(topo), twoldag.WithGamma(gamma), twoldag.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	ids := topo.Nodes()
	ctx := context.Background()
	hashes := map[block.Ref]twoldag.Digest{}
	for s := uint32(0); s < lastSlot; s++ {
		rt.AdvanceSlot()
		refs, err := rt.SubmitBatch(ctx, slotBatch(seed, rt.Slot(), ids, readingBytes))
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			b, err := rt.Block(ref)
			if err != nil {
				return nil, err
			}
			hashes[ref] = b.Header.Hash()
		}
	}
	return hashes, nil
}

// checkHeaders compares live headers against the oracle's hashes.
func checkHeaders(out *outcome, name string, live map[block.Ref]*block.Header, oracle map[block.Ref]twoldag.Digest, corrupt bool) {
	if corrupt {
		for ref, d := range oracle { // flip one expected hash
			d[0] ^= 0xff
			oracle[ref] = d
			break
		}
	}
	bad := 0
	var first string
	for ref, h := range live {
		if want, ok := oracle[ref]; !ok || want != h.Hash() {
			if bad == 0 {
				first = " (first " + ref.String() + ")"
			}
			bad++
		}
	}
	ok := bad == 0 && len(live) == len(oracle)
	out.check(name, ok, "%d live headers, %d oracle headers, %d mismatched%s", len(live), len(oracle), bad, first)
}

func runIngest(cfg runConfig, out *outcome) error {
	sz := ingestSizes(cfg.short)
	topo, err := deployment(sz.nodes)
	if err != nil {
		return err
	}
	slots := max(1, int(cfg.seconds*sz.slotsPerSecond))
	var rec *recorder
	var untraced *ingestPass
	if cfg.trace {
		// Untraced reference first, then the traced pass on the same
		// inputs; each runs half the slots.
		slots = max(1, slots/2)
		untraced, err = runIngestPass(cfg, sz, topo, slots, nil, "ref")
		if err != nil {
			return err
		}
		rec = newRecorder()
	}
	p, err := runIngestPass(cfg, sz, topo, slots, rec, "run")
	if err != nil {
		return err
	}
	blocks := len(p.slots) * sz.nodes
	out.attempted = int64(len(p.slots)) + p.failed
	out.failed = p.failed

	oracle, err := simOracle(topo, sz.gamma, cfg.seed, p.lastSlot, sz.reading)
	if err != nil {
		return fmt.Errorf("simulator oracle: %w", err)
	}
	checkHeaders(out, "ingest-headers=sim", p.headers, oracle, cfg.corruptOracle)
	same := len(p.before) == len(p.after)
	for id, d := range p.before {
		same = same && p.after[id] == d
	}
	out.check("state-digest-reopen", same, "%d nodes, state digest before Close vs after New on the data dir", len(p.before))

	// The gated figures are medians over windows of consecutive slots:
	// this machine's speed drifts for seconds at a time (other tenants),
	// and a window median ignores a minority of slowed windows where a
	// whole-run figure would absorb them. Whole-run figures print as
	// headline lines.
	var p50s, p75s, rates []float64
	for lo := 0; lo < len(p.slots); lo += ingestWindow {
		hi := min(lo+ingestWindow, len(p.slots))
		w := durations(p.slots[lo:hi])
		p50s = append(p50s, quantile(w, 0.5))
		p75s = append(p75s, quantile(w, 0.75))
		end := p.wall
		if hi < len(p.starts) {
			end = p.starts[hi]
		}
		rates = append(rates, float64((hi-lo)*sz.nodes)/(end-p.starts[lo]).Seconds())
	}
	lat := durations(p.slots)
	bps := float64(blocks) / p.wall.Seconds()
	out.e2e["setup_s"] = p.setup.Seconds()
	out.e2e["ops_per_s"] = quantile(rates, 0.5)
	out.e2e["op_p50_ms"] = quantile(p50s, 0.5)
	out.e2e["op_tail_ms"] = quantile(p75s, 0.5)
	out.e2e["heap_mb"] = p.heapMB
	out.headline = []named{
		{"setup_s", p.setup.Seconds(), "s"},
		{"blocks_per_s", bps, fmt.Sprintf("blocks/s (whole run; window median %.1f)", quantile(rates, 0.5))},
		{"submit_p50_ms", quantile(lat, 0.5), fmt.Sprintf("ms (whole run; window median %.3f)", quantile(p50s, 0.5))},
		{"submit_p99_ms", quantile(lat, 0.99), fmt.Sprintf("ms (whole run, n=%d; window p75 median %.3f)", len(lat), quantile(p75s, 0.5))},
		{"recover_s", p.recover.Seconds(), "s"},
		{"heap_mb", p.heapMB, "MB"},
		{"failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio"},
	}
	if !cfg.trace {
		return nil
	}

	zeroLayers(out)
	evs := rec.events()
	hs := make([]*block.Header, 0, len(p.headers))
	for _, h := range p.headers {
		hs = append(hs, h)
	}
	out.layers["block.pow_tries"] = powTries(hs)

	st := slotSpans(evs, p.spans)
	st.setLayers(out, sz.nodes)
	out.layers["ledger.recover_s"] = p.recover.Seconds()
	// WAL totals cover the whole run (commit windows close at Close).
	allBlocks := float64(len(p.headers))
	out.layers["ledger.wal_fsyncs_per_block"] = ratio(float64(countKind(evs, evCommit)), allBlocks)
	out.layers["ledger.wal_bytes_per_block"] = ratio(float64(p.walBytes), allBlocks)
	for _, name := range []string{"block.pow_tries", "node.frames_per_slot", "wire.bytes_per_block",
		"ledger.wal_fsyncs_per_block", "ledger.wal_bytes_per_block"} {
		out.counts[name] = out.layers[name]
	}

	ring, err := ringFor(topo, cfg.seed)
	if err != nil {
		return err
	}
	err = replayLayers(replayInputs{
		params: block.DefaultParams(), seed: cfg.seed, topo: topo, ring: ring,
		blocks: p.sample, chain: p.chain, batches: rec.captured(),
	}, cfg.dir, out)
	if err != nil {
		return err
	}

	untracedSlot := mean(durations(untraced.slots))
	tracedSlot := mean(durations(p.slots))
	out.layers["trace.overhead_frac"] = ratio(tracedSlot-untracedSlot, untracedSlot)
	bpsSlot := float64(sz.nodes)
	b := &out.budget
	b.op, b.untraced = "slot (SubmitBatch)", untracedSlot*1e3
	b.add("block.merkle_root", out.layers["block.merkle_root_us"]*bpsSlot)
	b.add("block.pow", out.layers["block.pow_us"]*bpsSlot)
	b.add("block.sign", out.layers["block.sign_us"]*bpsSlot)
	b.add("ledger.log_block", out.layers["ledger.log_block_us"]*bpsSlot)
	n := float64(len(p.spans))
	b.add("node.announce+transport+wire+core (traced)", st.deliverTail/n)
	b.add("cluster.ack_wait (traced)", st.ackWait/n)
	out.layers["budget.residual_frac"] = ratio(b.residual(), b.untraced)
	return nil
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
