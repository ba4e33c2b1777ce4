package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
)

// audit: the on-demand read path over the in-memory fabric, run as
// independent episodes. Each episode is a fresh deployment (its own
// sub-seed) whose set-up seals prefill slots; a closed-loop warm-up
// then fills the validators' trust stores and verification caches so
// the measured phases do not see them cold. The timed phase is PoP
// audits only: an open-loop Poisson phase at a fixed rate below the
// knee (latency from each audit's due time), then a fixed backlog
// drained closed loop.
//
// Why episodes: a validator's audit cost depends on its own history
// (trust store, blacklist), and over long histories a few validators
// drift into states where every audit walks far — which validators
// depends on the schedule, so one long deployment per run swings
// several-fold between seeds. Pooling several shorter deployments
// keeps that behaviour in the workload while averaging which
// validators it hits.
type auditSize struct {
	nodes, gamma, reading, prefill, episodes, warmup int
	rate                                             float64 // open-loop audits/s
	drainPerSecond                                   float64 // backlog size per -seconds
	openShare                                        float64 // share of -seconds spent open loop
}

func auditSizes(short bool) auditSize {
	if short {
		return auditSize{nodes: 8, gamma: 2, reading: 1024, prefill: 12, episodes: 2, warmup: 50, rate: 100, drainPerSecond: 50, openShare: 0.6}
	}
	return auditSize{nodes: 32, gamma: 4, reading: 16 << 10, prefill: 48, episodes: 8, warmup: 1000, rate: 500, drainPerSecond: 800, openShare: 0.6}
}

// auditTail is the gated open-loop tail percentile. p90..p99 sit among
// the few audits whose validators walk far, and the open-loop audits
// queued behind them, and swung between runs by more than any bound;
// p75 is steady. p90 and p99 print as headline figures.
const auditTail = 0.75

// episodeSeed derives episode k's seed from the run seed.
func episodeSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// auditJob is one scheduled audit.
type auditJob struct {
	due       time.Duration // offset from the phase start (0 when closed loop)
	validator twoldag.NodeID
	target    block.Ref
}

// auditDone is one audit's measured outcome. Only the verdict and the
// cost counters are kept: holding every AuditResult would keep every
// fetched header alive and inflate heap_mb with the benchmark's own
// bookkeeping.
type auditDone struct {
	start, end time.Duration // offsets from the phase start
	lag        time.Duration // how late the lane began an audit it was idle for
	idle       bool
	validator  twoldag.NodeID
	verdict    string
	sent, recv int              // REQ_CHILD/GET_BLOCK requests, replies
	trust      int              // path steps served from the trust store
	fetched    int              // headers fetched over the network
	span       [2]time.Duration // recorder-relative, traced runs only
}

// auditSchedule draws the warm-up audits, the open-loop Poisson
// arrivals and the drain backlog from the seed. Validators are uniform;
// targets are uniform over blocks at least |V| slots old (the
// simulator's eligibility rule).
func auditSchedule(seed int64, sz auditSize, secs float64) (warm, open, drain []auditJob) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x61756469))
	eligibleSlots := max(1, sz.prefill-sz.nodes)
	pick := func(due time.Duration) auditJob {
		return auditJob{
			due:       due,
			validator: twoldag.NodeID(rng.IntN(sz.nodes)),
			target:    block.Ref{Node: twoldag.NodeID(rng.IntN(sz.nodes)), Seq: uint32(rng.IntN(eligibleSlots))},
		}
	}
	for i := 0; i < sz.warmup; i++ {
		warm = append(warm, pick(0))
	}
	horizon := secs * sz.openShare
	for t := rng.ExpFloat64() / sz.rate; t < horizon; t += rng.ExpFloat64() / sz.rate {
		open = append(open, pick(time.Duration(t*float64(time.Second))))
	}
	for i := 0; i < int(sz.drainPerSecond*secs); i++ {
		drain = append(drain, pick(0))
	}
	return warm, open, drain
}

// runLanes executes jobs on nproc lanes, job j on lane validator mod
// nproc, each lane in schedule order — so every validator's audits
// (and its trust store H_i) evolve in one fixed order, and each
// validator has at most one audit in flight.
func runLanes(rt twoldag.Runtime, jobs []auditJob, rec *recorder) (dones []auditDone, wall time.Duration) {
	lanes := runtime.NumCPU()
	dones = make([]auditDone, len(jobs))
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i, j := range jobs {
				if int(j.validator)%lanes != l {
					continue
				}
				d := &dones[i]
				d.validator = j.validator
				if wait := j.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
					d.idle = true
				}
				d.start = time.Since(start)
				d.lag = d.start - j.due
				if rec != nil {
					d.span[0] = rec.now()
				}
				res, err := rt.Audit(ctx, j.validator, j.target)
				d.end = time.Since(start)
				if rec != nil {
					d.span[1] = rec.now()
				}
				d.verdict = verdict(res, err)
				if res != nil {
					d.sent, d.recv, d.trust, d.fetched = res.MessagesSent, res.MessagesReceived, res.TrustHits, res.HeadersFetched
				}
			}
		}(l)
	}
	wg.Wait()
	return dones, time.Since(start)
}

// verdict classifies an audit outcome for the oracle comparison.
func verdict(res *twoldag.AuditResult, err error) string {
	switch {
	case err == nil && res != nil && res.Consensus:
		return "consensus"
	case err == nil || errors.Is(err, twoldag.ErrNoConsensus):
		return "no-consensus"
	default:
		return "error: " + err.Error()
	}
}

// auditEpisode is one deployment's set-up, warm-up and timed phase.
type auditEpisode struct {
	seed              int64
	setup             time.Duration
	warm, open, drain []auditDone
	sched             [3][]auditJob // warm, open, drain
	drainWall         time.Duration
	heapMB            float64
	headers           map[block.Ref]*block.Header
	sample            []*block.Block
	chain             []*block.Block
	prefill           [][2]time.Duration // traced SubmitBatch spans
}

func auditOptions(sz auditSize, topo *twoldag.Topology, seed int64, rec *recorder) []twoldag.Option {
	opts := []twoldag.Option{twoldag.WithTopology(topo), twoldag.WithGamma(sz.gamma), twoldag.WithSeed(seed)}
	if rec != nil {
		opts = append(opts, twoldag.WithObserver(rec))
	}
	return opts
}

// prefill seals sz.prefill slots of seeded readings.
func prefill(rt twoldag.Runtime, seed int64, ids []twoldag.NodeID, sz auditSize, rec *recorder) ([][2]time.Duration, error) {
	var spans [][2]time.Duration
	for s := 0; s < sz.prefill; s++ {
		rt.AdvanceSlot()
		batch := slotBatch(seed, rt.Slot(), ids, sz.reading)
		var s0 time.Duration
		if rec != nil {
			s0 = rec.now()
		}
		if _, err := rt.SubmitBatch(context.Background(), batch); err != nil {
			return nil, fmt.Errorf("prefill slot %d: %w", rt.Slot(), err)
		}
		if rec != nil {
			spans = append(spans, [2]time.Duration{s0, rec.now()})
		}
	}
	return spans, nil
}

func runEpisode(sz auditSize, topo *twoldag.Topology, seed int64, secs float64, rec *recorder) (*auditEpisode, error) {
	ids := topo.Nodes()
	e := &auditEpisode{seed: seed, headers: map[block.Ref]*block.Header{}}
	t0 := time.Now()
	rt, err := twoldag.New(auditOptions(sz, topo, seed, rec)...)
	if err != nil {
		return nil, err
	}
	if e.prefill, err = prefill(rt, seed, ids, sz, rec); err != nil {
		rt.Close()
		return nil, err
	}
	e.setup = time.Since(t0)

	warm, open, drain := auditSchedule(seed, sz, secs)
	e.sched = [3][]auditJob{warm, open, drain}
	e.warm, _ = runLanes(rt, warm, nil)
	e.open, _ = runLanes(rt, open, rec)
	e.drain, e.drainWall = runLanes(rt, drain, rec)
	e.heapMB = heapMB()

	for _, id := range ids {
		for seq := uint32(0); seq < uint32(sz.prefill); seq++ {
			b, err := rt.Block(block.Ref{Node: id, Seq: seq})
			if err != nil {
				rt.Close()
				return nil, err
			}
			e.headers[b.Header.Ref()] = b.Header.CloneSealed()
			if id == ids[0] {
				e.chain = append(e.chain, b)
			}
			if seq%4 == 0 && len(e.sample) < 64 {
				e.sample = append(e.sample, b)
			}
		}
	}
	return e, rt.Close()
}

// runAuditPass runs the episodes of one pass; with out set, each
// episode is also checked against the simulator oracle and its
// divergent verdicts are summed.
func runAuditPass(cfg runConfig, sz auditSize, topo *twoldag.Topology, secs float64, rec *recorder, out *outcome) (eps []*auditEpisode, diverged int, err error) {
	for k := 0; k < sz.episodes; k++ {
		e, err := runEpisode(sz, topo, episodeSeed(cfg.seed, k), secs/float64(sz.episodes), rec)
		if err != nil {
			return nil, 0, err
		}
		if out != nil {
			d, err := auditOracle(cfg, sz, topo, e, out, k == 0)
			if err != nil {
				return nil, 0, err
			}
			diverged += d
		}
		eps = append(eps, e)
	}
	return eps, diverged, nil
}

// auditOracle seals the same prefill on the simulator driver, checks
// the live headers against it, and runs the same audits one at a time
// in schedule order — the per-validator order the lanes kept.
//
// A live node keeps a blacklist (Sec. IV-D6) that bans a responder
// after repeated unanswered requests; the simulator keeps none. A
// banned honest responder can turn a live audit into no-consensus
// where the simulator reaches consensus, so that one direction is
// counted (the returned diverged) rather than failed. Every other
// difference fails the check: a live consensus the simulator does not
// reach, or a live error.
func auditOracle(cfg runConfig, sz auditSize, topo *twoldag.Topology, p *auditEpisode, out *outcome, corrupt bool) (diverged int, err error) {
	sim, err := twoldag.New(twoldag.WithSimulator(), twoldag.WithTopology(topo), twoldag.WithGamma(sz.gamma), twoldag.WithSeed(p.seed))
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	if _, err := prefill(sim, p.seed, topo.Nodes(), sz, nil); err != nil {
		return 0, fmt.Errorf("simulator oracle: %w", err)
	}
	jobs := append(append(append([]auditJob(nil), p.sched[0]...), p.sched[1]...), p.sched[2]...)
	dones := append(append(append([]auditDone(nil), p.warm...), p.open...), p.drain...)
	oracle := map[block.Ref]twoldag.Digest{}
	for ref := range p.headers {
		b, err := sim.Block(ref)
		if err != nil {
			return 0, fmt.Errorf("simulator oracle: %w", err)
		}
		oracle[ref] = b.Header.Hash()
	}
	name := fmt.Sprintf("audit-ep%d", p.seed%1000)
	checkHeaders(out, name+"-headers=sim", p.headers, oracle, false)

	bad, first, corrupted := 0, "", !corrupt
	for i, j := range jobs {
		want := verdict(sim.Audit(context.Background(), j.validator, j.target))
		got := dones[i].verdict
		if cfg.corruptOracle && !corrupted && got == "consensus" { // self-test only
			want, corrupted = "corrupted", true
		}
		switch {
		case got == want:
		case got == "no-consensus" && want == "consensus":
			diverged++
		default:
			if bad == 0 {
				first = fmt.Sprintf("; first: audit %d (%v by %v) live %s, sim %s", i, j.target, j.validator, got, want)
			}
			bad++
		}
	}
	out.check(name+"-verdicts=sim", bad == 0,
		"%d audits, %d differ%s; %d live no-consensus where the simulator (no blacklist) reached consensus",
		len(jobs), bad, first, diverged)
	return diverged, nil
}

func runAudit(cfg runConfig, out *outcome) error {
	sz := auditSizes(cfg.short)
	topo, err := deployment(sz.nodes)
	if err != nil {
		return err
	}
	secs := cfg.seconds
	var rec *recorder
	var untraced []*auditEpisode
	if cfg.trace {
		secs /= 2
		if untraced, _, err = runAuditPass(cfg, sz, topo, secs, nil, nil); err != nil {
			return err
		}
		rec = newRecorder()
	}
	eps, diverged, err := runAuditPass(cfg, sz, topo, secs, rec, out)
	if err != nil {
		return err
	}

	// Warm-up audits count toward correctness, not toward the
	// timed-phase figures.
	// Latencies pool every episode's open loop, the drain rate every
	// episode's backlog; set-up and heap are medians over episodes.
	var timed, drained []auditDone
	var setups, heaps, lat, lags []float64
	var drainWall time.Duration
	for _, e := range eps {
		timed = append(append(timed, e.open...), e.drain...)
		drained = append(drained, e.drain...)
		drainWall += e.drainWall
		setups = append(setups, e.setup.Seconds())
		heaps = append(heaps, e.heapMB)
		for i, d := range e.open {
			lat = append(lat, ms(d.end-e.sched[1][i].due))
			if d.idle {
				lags = append(lags, ms(d.lag))
			}
		}
	}
	var noCons int
	for _, d := range timed {
		out.attempted++
		switch d.verdict {
		case "consensus":
		case "no-consensus":
			noCons++
		default:
			out.failed++
		}
	}
	setup := quantile(setups, 0.5)
	heap := quantile(heaps, 0.5)
	tail := quantile(lat, auditTail)
	aps := float64(len(drained)) / drainWall.Seconds()
	noConsFrac := ratio(float64(noCons), float64(len(timed)))
	out.e2e["setup_s"] = setup
	out.e2e["ops_per_s"] = aps
	out.e2e["op_p50_ms"] = quantile(lat, 0.5)
	out.e2e["op_tail_ms"] = tail
	out.e2e["heap_mb"] = heap
	out.headline = []named{
		{"setup_s", setup, fmt.Sprintf("s (median of %d episodes)", len(eps))},
		{"audit_p50_ms", quantile(lat, 0.5), "ms"},
		{"audit_p75_ms", tail, fmt.Sprintf("ms (n=%d over %d episodes, %.0f/s open loop)", len(lat), len(eps), sz.rate)},
		{"audit_p90_ms", quantile(lat, 0.90), "ms"},
		{"audit_p99_ms", quantile(lat, 0.99), "ms"},
		{"audits_per_s", aps, fmt.Sprintf("audits/s (%d drained over %d episodes)", len(drained), len(eps))},
		{"heap_mb", heap, "MB"},
		{"failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio"},
		{"no_consensus_frac", noConsFrac, "ratio"},
	}
	if !cfg.trace {
		return nil
	}

	zeroLayers(out)
	evs := rec.events()
	out.layers["load.gen_lag_ms_p99"] = quantile(lags, 0.99)
	out.layers["core.no_consensus_frac"] = noConsFrac
	out.layers["core.sim_divergent_verdicts"] = float64(diverged)

	// Audit spans over each episode's timed phase; lanes keep one audit
	// in flight per validator. Message and trust counts come from the
	// results, which failed audits carry too.
	var a auditStats
	var prefills [][2]time.Duration
	for _, e := range eps {
		ts := append(append([]auditDone(nil), e.open...), e.drain...)
		from, to := ts[0].span[0], ts[0].span[1]
		for _, d := range ts {
			from, to = min(from, d.span[0]), max(to, d.span[1])
		}
		ea := auditSpans(between(evs, from, to+1))
		a.hops = append(a.hops, ea.hops...)
		a.nHops += ea.nHops
		prefills = append(prefills, e.prefill...)
	}
	var fetched, sent int
	for _, d := range timed {
		a.msgs += d.sent + d.recv
		a.trust += d.trust
		fetched += d.fetched
		sent += d.sent
	}
	a.verdicts = len(timed)
	a.setLayers(out)
	for _, name := range []string{"core.hops_per_audit", "core.msgs_per_audit", "core.trust_hits_per_audit",
		"core.no_consensus_frac", "core.sim_divergent_verdicts"} {
		out.counts[name] = out.layers[name]
	}
	st := slotSpans(evs, prefills)
	st.setLayers(out, sz.nodes)
	last := eps[len(eps)-1]
	hs := make([]*block.Header, 0, len(last.headers))
	for _, h := range last.headers {
		hs = append(hs, h)
	}
	out.layers["block.pow_tries"] = powTries(hs)
	out.counts["block.pow_tries"] = out.layers["block.pow_tries"]

	ring, err := ringFor(topo, last.seed)
	if err != nil {
		return err
	}
	err = replayLayers(replayInputs{
		params: block.DefaultParams(), seed: last.seed, topo: topo, ring: ring,
		blocks: last.sample, chain: last.chain, batches: rec.captured(),
	}, cfg.dir, out)
	if err != nil {
		return err
	}

	perAudit := func(eps []*auditEpisode) float64 {
		var sum float64
		var n int
		for _, e := range eps {
			for _, d := range e.drain {
				sum += us(d.end - d.start)
				n++
			}
		}
		return sum / float64(n)
	}
	untracedAudit, tracedAudit := perAudit(untraced), perAudit(eps)
	out.layers["trace.overhead_frac"] = ratio(tracedAudit-untracedAudit, untracedAudit)

	// Budget per drained audit: the traced lead-in up to the first
	// REQ_CHILD (target fetch and body check) and the traced hop phase,
	// the latter split into the replayed transport and wire costs of
	// its requests and the validator/node work that remains.
	var lead, hopPhase float64
	for _, d := range drained {
		first, verdictAt := time.Duration(-1), d.span[1]
		for _, e := range between(evs, d.span[0], d.span[1]+1) {
			switch {
			case e.node != d.validator:
			case e.kind == evHop && first < 0:
				first = e.at
			case e.kind == evVerdict:
				verdictAt = e.at
			}
		}
		if first < 0 { // every step came from the trust store
			first = verdictAt
		}
		lead += us(first - d.span[0])
		hopPhase += us(verdictAt - first)
	}
	nd, na := float64(len(drained)), float64(len(timed))
	rpc := out.layers["transport.mem_rpc_rtt_us"] * float64(sent) / na
	codec := out.layers["wire.header_reply_codec_ns"] / 1e3 * float64(fetched) / na
	b := &out.budget
	b.op, b.untraced = "audit (drain phase)", untracedAudit
	b.add("core.lead-in to first REQ_CHILD (traced)", lead/nd)
	b.add("transport.mem_rpc_rtt x requests (replay)", rpc)
	b.add("wire.header_reply_codec x headers (replay)", codec)
	b.add("core.validator+node, rest of hops (traced)", max(0, hopPhase/nd-rpc-codec))
	out.layers["budget.residual_frac"] = ratio(b.residual(), b.untraced)
	return nil
}
