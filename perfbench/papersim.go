package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/metrics"
)

// paper-sim: the simulator driver configured as the figure pipeline
// runs it (no mining, pipeline depth 2, one worker per CPU). It carries
// the paper's Fig. 7/8 cost figures and bypasses wire, transport, the
// WAL and the ack tracker — the control workload for live-path changes.
type simSize struct {
	nodes, gamma, bodyBytes, slots, setups int
}

func simSizes(short bool) simSize {
	if short {
		return simSize{nodes: 12, gamma: 3, bodyBytes: 500_000, slots: 30, setups: 1}
	}
	// New on the simulator takes milliseconds, so more repetitions
	// keep the set-up median steady.
	return simSize{nodes: 100, gamma: 5, bodyBytes: 500_000, slots: 200, setups: 15}
}

func simOptions(sz simSize, topo *twoldag.Topology, seed int64, workers int, obs twoldag.Observer) []twoldag.Option {
	opts := []twoldag.Option{
		twoldag.WithSimulator(),
		twoldag.WithTopology(topo),
		twoldag.WithGamma(sz.gamma),
		twoldag.WithSeed(seed),
		twoldag.WithBodyBytes(sz.bodyBytes),
		twoldag.WithDifficulty(0),
		twoldag.WithPipelineDepth(2),
		twoldag.WithWorkers(workers),
	}
	if obs != nil {
		opts = append(opts, twoldag.WithObserver(obs))
	}
	return opts
}

// auditClock times each simulated audit from its validator's first
// REQ_CHILD (AuditHop) to its verdict; audits served entirely from the
// trust store send no request and are not sampled. It is the only
// observer on untraced paper-sim runs: the simulator offers no other
// way to see an audit's duration, and a map update under a mutex per
// event costs well under a percent of the run.
type auditClock struct {
	twoldag.NopObserver
	epoch time.Time
	mu    sync.Mutex
	first map[twoldag.NodeID]time.Duration
	lat   []float64 // ms
}

func newAuditClock() *auditClock {
	return &auditClock{epoch: time.Now(), first: map[twoldag.NodeID]time.Duration{}}
}

func (c *auditClock) OnAuditHop(e twoldag.AuditHop) {
	at := time.Since(c.epoch)
	c.mu.Lock()
	if _, ok := c.first[e.Validator]; !ok {
		c.first[e.Validator] = at
	}
	c.mu.Unlock()
}

func (c *auditClock) verdict(v twoldag.NodeID) {
	at := time.Since(c.epoch)
	c.mu.Lock()
	if t, ok := c.first[v]; ok {
		c.lat = append(c.lat, ms(at-t))
		delete(c.first, v)
	}
	c.mu.Unlock()
}

func (c *auditClock) OnConsensusReached(e twoldag.ConsensusReached) { c.verdict(e.Validator) }
func (c *auditClock) OnAuditFailed(e twoldag.AuditFailed)           { c.verdict(e.Validator) }

// simRun is one New + RunSlots of the paper-sim workload.
type simRun struct {
	wall   time.Duration
	split  [2]time.Duration // traced: pre-|V| slots, audit slots
	report *twoldag.SimReport
	sample []*block.Block
	chain  []*block.Block
	heapMB float64
}

// runSim builds the simulator and runs sz.slots slots, as one RunSlots
// call or (split) as the pre-|V| slots then the audit slots.
func runSim(sz simSize, topo *twoldag.Topology, seed int64, workers int, obs twoldag.Observer, split bool) (*simRun, error) {
	rt, err := twoldag.New(simOptions(sz, topo, seed, workers, obs)...)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	d := rt.(*twoldag.SimDriver)
	r := &simRun{}
	start := time.Now()
	if split {
		pre := min(sz.nodes, sz.slots)
		if err := d.RunSlots(pre); err != nil {
			return nil, err
		}
		r.split[0] = time.Since(start)
		if err := d.RunSlots(sz.slots - pre); err != nil {
			return nil, err
		}
		r.split[1] = time.Since(start) - r.split[0]
	} else if err := d.RunSlots(sz.slots); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	r.heapMB = heapMB()
	r.report = d.Report()
	ids := rt.Nodes()
	for seq := uint32(0); seq < uint32(sz.slots); seq++ {
		b, err := rt.Block(block.Ref{Node: ids[0], Seq: seq})
		if err != nil {
			return nil, err
		}
		r.chain = append(r.chain, b)
	}
	for i, id := range ids {
		if i%2 == 0 && len(r.sample) < 64 {
			b, err := rt.Block(block.Ref{Node: id, Seq: uint32(i % sz.slots)})
			if err != nil {
				return nil, err
			}
			r.sample = append(r.sample, b)
		}
	}
	return r, nil
}

// reportBytes is the deterministic part of a report, for byte-identity
// checks (the heap sample is process-level and excluded).
func reportBytes(r *twoldag.SimReport) []byte {
	cp := *r
	cp.Mem = nil
	b, _ := json.Marshal(&cp) // cannot fail: ints and int slices only
	return b
}

func runPaperSim(cfg runConfig, out *outcome) error {
	sz := simSizes(cfg.short)
	topo, err := deployment(sz.nodes)
	if err != nil {
		return err
	}
	workers := runtime.NumCPU()
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		runtime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		rt, err := twoldag.New(simOptions(sz, topo, cfg.seed, workers, nil)...)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rt.Close()
	}
	setup := quantile(setups, 0.5)

	clock := newAuditClock()
	base, err := runSim(sz, topo, cfg.seed, workers, clock, false)
	if err != nil {
		return err
	}
	rep := base.report
	out.attempted = int64(rep.Audits)
	out.failed = int64(rep.Failures)
	wantBlocks := sz.nodes * sz.slots
	if cfg.corruptOracle {
		wantBlocks++ // self-test only
	}
	out.check("sim-blocks", rep.Blocks == wantBlocks, "%d blocks, want |V| x slots = %d", rep.Blocks, wantBlocks)
	out.check("sim-failures", rep.Failures == 0 && rep.Audits > 0, "%d audits, %d failures", rep.Audits, rep.Failures)

	last := len(rep.AvgStorageBits) - 1
	storage := metrics.BitsToMB(rep.AvgStorageBits[last])
	comm := metrics.BitsToMb(rep.AvgCommBits[last])
	// The operation is one PoP audit, as on the audit workload.
	sps := float64(sz.slots) / base.wall.Seconds()
	aps := float64(rep.Audits) / base.wall.Seconds()
	p50, tail := quantile(clock.lat, 0.5), quantile(clock.lat, 0.99)
	out.e2e["setup_s"] = setup
	out.e2e["ops_per_s"] = aps
	out.e2e["op_p50_ms"] = p50
	out.e2e["op_tail_ms"] = tail
	out.e2e["heap_mb"] = base.heapMB
	out.headline = []named{
		{"setup_s", setup, "s"},
		{"sim_slots_per_s", sps, fmt.Sprintf("slots/s (%d slots)", sz.slots)},
		{"sim_audits_per_s", aps, fmt.Sprintf("audits/s (%d audits)", rep.Audits)},
		{"audit_p50_ms", p50, "ms (first REQ_CHILD to verdict)"},
		{"audit_p99_ms", tail, fmt.Sprintf("ms (n=%d audits that sent a request)", len(clock.lat))},
		{"storage_mb_per_node", storage, "MB (Fig. 7, final slot)"},
		{"comm_mbit_per_node", comm, "Mb (Fig. 8, final slot)"},
		{"heap_mb", base.heapMB, "MB"},
		{"failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio"},
		{"no_consensus_frac", ratio(float64(rep.Failures), float64(rep.Audits)), "ratio"},
	}
	if !cfg.trace {
		return nil
	}

	zeroLayers(out)
	out.layers["sim.storage_mb_per_node"] = storage
	out.layers["sim.comm_mbit_per_node"] = comm
	out.layers["core.no_consensus_frac"] = ratio(float64(rep.Failures), float64(rep.Audits))

	rec := newRecorder()
	traced, err := runSim(sz, topo, cfg.seed, workers, rec, true)
	if err != nil {
		return err
	}
	pre := min(sz.nodes, sz.slots)
	out.layers["sim.gen_slot_ms"] = ms(traced.split[0]) / float64(pre)
	out.layers["sim.audit_slot_ms"] = ratio(ms(traced.split[1]), float64(sz.slots-pre))
	out.check("sim-split=single", bytes.Equal(reportBytes(traced.report), reportBytes(rep)),
		"RunSlots(%d)+RunSlots(%d) report vs RunSlots(%d)", pre, sz.slots-pre, sz.slots)
	serialRec := newRecorder()
	serial, err := runSim(sz, topo, cfg.seed, 1, serialRec, true)
	if err != nil {
		return err
	}
	out.layers["par.speedup"] = ratio(float64(serial.wall), float64(traced.wall))
	out.check("sim-workers1=workers", bytes.Equal(reportBytes(serial.report), reportBytes(rep)),
		"Workers=1 report vs Workers=%d", workers)

	// Seal gaps come from the one-worker run, where a slot's blocks
	// seal back to back; delivery and hop spans from the traced run.
	var seals []float64
	prev := event{}
	for _, e := range serialRec.events() {
		if e.kind == evSealed && prev.kind == evSealed && e.slot == prev.slot {
			seals = append(seals, us(e.at-prev.at))
		}
		prev = e
	}
	out.layers["block.seal_us_p50"] = quantile(seals, 0.5)
	out.layers["block.seal_us_p99"] = quantile(seals, 0.99)

	evs := rec.events()
	var delivers []float64
	lastSeal := time.Duration(-1)
	for _, e := range evs {
		switch {
		case e.kind == evSealed:
			lastSeal = e.at
		case e.kind == evDelivered && lastSeal >= 0:
			delivers = append(delivers, us(e.at-lastSeal))
		}
	}
	out.layers["node.deliver_us_p50"] = quantile(delivers, 0.5)
	out.layers["node.deliver_us_p99"] = quantile(delivers, 0.99)
	a := auditSpans(evs)
	a.setLayers(out)
	out.layers["sim.hops_per_audit"] = out.layers["core.hops_per_audit"]
	hs := make([]*block.Header, len(traced.chain))
	for i, b := range traced.chain {
		hs[i] = &b.Header
	}
	out.layers["block.pow_tries"] = powTries(hs)
	for _, name := range []string{"block.pow_tries", "core.hops_per_audit", "core.msgs_per_audit", "core.trust_hits_per_audit",
		"core.no_consensus_frac", "sim.hops_per_audit", "sim.storage_mb_per_node", "sim.comm_mbit_per_node"} {
		out.counts[name] = out.layers[name]
	}

	ring, err := ringFor(topo, cfg.seed)
	if err != nil {
		return err
	}
	params := block.DefaultParams()
	params.Difficulty = 0
	err = replayLayers(replayInputs{
		params: params, seed: cfg.seed, topo: topo, ring: ring,
		blocks: traced.sample, chain: traced.chain, batches: rec.captured(),
	}, cfg.dir, out)
	if err != nil {
		return err
	}

	untracedSlot := base.wall.Seconds() * 1e6 / float64(sz.slots)
	tracedSlot := traced.wall.Seconds() * 1e6 / float64(sz.slots)
	out.layers["trace.overhead_frac"] = ratio(tracedSlot-untracedSlot, untracedSlot)
	// Budget per audit (the operation), from per-slot costs spread over
	// the audits of a run: the generation phase every slot pays
	// (measured on the pre-|V| slots, which run no audits), the audit
	// duty the audit slots add on top, and within generation the
	// replayed sign and ingest work spread over the workers.
	perAudit := float64(sz.slots) / float64(rep.Audits)
	auditShare := float64(sz.slots-pre) / float64(sz.slots)
	gen := out.layers["sim.gen_slot_ms"] * 1e3
	audit := max(0, out.layers["sim.audit_slot_ms"]*1e3-gen) * auditShare
	speedup := max(1, out.layers["par.speedup"])
	sign := out.layers["block.sign_us"] * float64(sz.nodes) / speedup
	ingest := out.layers["core.ingest_us"] * float64(sz.nodes) / speedup
	b := &out.budget
	b.op, b.untraced = "audit (RunSlots wall / audits)", untracedSlot*perAudit
	b.add("block.sign (replay, /par.speedup)", sign*perAudit)
	b.add("core.ingest (replay, /par.speedup)", ingest*perAudit)
	b.add("sim.generate+deliver other (traced)", max(0, gen-sign-ingest)*perAudit)
	b.add("sim.audit duty (traced)", audit*perAudit)
	out.layers["budget.residual_frac"] = ratio(b.residual(), b.untraced)
	return nil
}
