package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric of the result line. The lists below are
// the ones BENCHMARK.json declares; the self-test keeps them in step.
type metricDef struct {
	name, unit string
}

// e2eMetrics are reported by every workload with -trace 0. An
// "operation" is the workload's unit of work: one slot's SubmitBatch
// (ingest), one PoP audit (audit), one simulator slot (paper-sim).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"heap_mb", "MB"},
}

// layerMetrics are reported by every workload with -trace 1. A layer
// a workload never exercises reports 0 (see README.md).
var layerMetrics = []metricDef{
	{"block.seal_us_p50", "us"},
	{"block.seal_us_p99", "us"},
	{"block.merkle_root_us", "us"},
	{"block.pow_us", "us"},
	{"block.pow_tries", "count"},
	{"block.sign_us", "us"},
	{"block.validate_header_us", "us"},
	{"ledger.wal_fsyncs_per_block", "count"},
	{"ledger.wal_bytes_per_block", "B"},
	{"ledger.log_block_us", "us"},
	{"ledger.compact_ms", "ms"},
	{"ledger.recover_us_per_block", "us"},
	{"ledger.recover_s", "s"},
	{"core.ingest_us", "us"},
	{"core.hops_per_audit", "count"},
	{"core.msgs_per_audit", "count"},
	{"core.trust_hits_per_audit", "count"},
	{"core.no_consensus_frac", "ratio"},
	{"core.sim_divergent_verdicts", "count"},
	{"core.hop_us_p50", "us"},
	{"core.hop_us_p99", "us"},
	{"wire.digest_batch_codec_ns", "ns"},
	{"wire.header_reply_codec_ns", "ns"},
	{"wire.bytes_per_block", "B"},
	{"transport.tcp_frame_rtt_us", "us"},
	{"transport.mem_rpc_rtt_us", "us"},
	{"transport.drops", "count"},
	{"node.retries", "count"},
	{"node.deliver_us_p50", "us"},
	{"node.deliver_us_p99", "us"},
	{"node.frames_per_slot", "count"},
	{"cluster.ack_wait_us", "us"},
	{"sim.gen_slot_ms", "ms"},
	{"sim.audit_slot_ms", "ms"},
	{"sim.hops_per_audit", "count"},
	{"sim.storage_mb_per_node", "MB"},
	{"sim.comm_mbit_per_node", "Mb"},
	{"par.speedup", "ratio"},
	{"load.gen_lag_ms_p99", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"budget.residual_frac", "ratio"},
	{"determinism.drifts", "count"},
}

// zeroLayers pre-fills every layer metric with 0 so a workload only
// sets the layers it exercises.
func zeroLayers(out *outcome) {
	for _, m := range layerMetrics {
		out.layers[m.name] = 0
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted. 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// budget is a per-operation layer budget: rows of wall time per
// operation plus the residual that makes them sum to the untraced
// per-operation time.
type budget struct {
	op       string
	untraced float64 // us per operation, untraced run
	rows     []named
}

func (b *budget) add(name string, usPerOp float64) {
	b.rows = append(b.rows, named{name: name, value: usPerOp, unit: "us/op"})
}

func (b *budget) residual() float64 {
	r := b.untraced
	for _, row := range b.rows {
		r -= row.value
	}
	return r
}

func (b *budget) print(w io.Writer, workload string) {
	if b.untraced == 0 {
		return
	}
	fmt.Fprintf(w, "# budget %s: per %s, untraced %.1f us\n", workload, b.op, b.untraced)
	for _, row := range b.rows {
		fmt.Fprintf(w, "# budget   %-34s %12.1f us %6.1f%%\n", row.name, row.value, 100*row.value/b.untraced)
	}
	r := b.residual()
	fmt.Fprintf(w, "# budget   %-34s %12.1f us %6.1f%%\n", "residual", r, 100*r/b.untraced)
	fmt.Fprintf(w, "# budget   %-34s %12.1f us\n", "sum (= untraced)", b.untraced)
}
