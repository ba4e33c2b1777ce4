package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/twoldag/twoldag"
	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/wire"
)

// deploySeed fixes each workload's radio topology, so -seed varies the
// traffic (readings, identities, audit schedule, simulator streams)
// over one deployment shape and runs with different seeds stay
// comparable.
const deploySeed = 1

func deployment(nodes int) (*twoldag.Topology, error) {
	return topology.Deployment(nodes, deploySeed)
}

// reading is the seeded sensor payload node submits in slot.
func reading(seed int64, slot uint32, node twoldag.NodeID, size int) []byte {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(seed))
	binary.LittleEndian.PutUint32(key[8:], slot)
	binary.LittleEndian.PutUint32(key[12:], uint32(node))
	buf := make([]byte, size)
	rand.NewChaCha8(key).Read(buf)
	return buf
}

// slotBatch is one slot's submissions: one reading per node.
func slotBatch(seed int64, slot uint32, ids []twoldag.NodeID, size int) []twoldag.Submission {
	batch := make([]twoldag.Submission, len(ids))
	for i, id := range ids {
		batch[i] = twoldag.Submission{Node: id, Data: reading(seed, slot, id, size)}
	}
	return batch
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// digestFrameBytes returns the encoded size of a DigestBatch frame as
// a per-frame constant plus a per-digest increment, and the size of a
// singleton DigestAnnounce frame.
func digestFrameBytes() (perFrame, perDigest, single int) {
	var d twoldag.Digest
	one := wire.NewDigestBatch(1, 2, []twoldag.Digest{d}, 1).WireSize()
	two := wire.NewDigestBatch(1, 2, []twoldag.Digest{d, d}, 1).WireSize()
	return one - (two - one), two - one, wire.NewDigestAnnounce(1, 2, d, 1).WireSize()
}

// powTries is the mean proof-of-work search length (nonce + 1) over
// the given headers.
func powTries(hs []*block.Header) float64 {
	var sum float64
	for _, h := range hs {
		sum += float64(h.Nonce) + 1
	}
	return ratio(sum, float64(len(hs)))
}

// fsName reports the filesystem type name behind a statfs magic.
func fsName(magic int64) string {
	switch magic {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("fs-0x%x", magic)
	}
}

// slotStats are the spans of SubmitBatch slots, built from the
// recorder's events inside each slot's [start, end) window.
type slotStats struct {
	seals, delivers []float64 // us: gap up to each BlockSealed; last seal to each delivery
	// Summed over slots, us: last seal -> last delivery (announce
	// sends, transport, wire decode, engine ingest) and last delivery ->
	// SubmitBatch return (the ack tracker).
	deliverTail, ackWait float64
	slots                int
	frames               int
	wireBytes            int64
	drops, retries       int
}

func slotSpans(evs []event, spans [][2]time.Duration) slotStats {
	st := slotStats{slots: len(spans)}
	perFrame, perDigest, single := digestFrameBytes()
	for _, sp := range spans {
		lastSeal, lastDeliv := sp[0], sp[0]
		for _, e := range between(evs, sp[0], sp[1]) {
			switch e.kind {
			case evSealed:
				st.seals = append(st.seals, us(e.at-lastSeal))
				lastSeal = e.at
			case evDelivered:
				st.delivers = append(st.delivers, us(e.at-lastSeal))
				lastDeliv = e.at
				st.frames += e.frames
				if e.single {
					st.wireBytes += int64(single)
				} else {
					st.wireBytes += int64(e.frames*perFrame + e.n*perDigest)
				}
			case evDropped:
				st.drops++
			case evRetry:
				st.retries++
			}
		}
		lastDeliv = max(lastDeliv, lastSeal)
		st.deliverTail += us(lastDeliv - lastSeal)
		st.ackWait += us(sp[1] - lastDeliv)
	}
	return st
}

// setLayers reports the slot spans and counts as layer metrics.
func (st slotStats) setLayers(out *outcome, nodes int) {
	out.layers["block.seal_us_p50"] = quantile(st.seals, 0.5)
	out.layers["block.seal_us_p99"] = quantile(st.seals, 0.99)
	out.layers["node.deliver_us_p50"] = quantile(st.delivers, 0.5)
	out.layers["node.deliver_us_p99"] = quantile(st.delivers, 0.99)
	out.layers["cluster.ack_wait_us"] = ratio(st.ackWait, float64(st.slots))
	out.layers["node.frames_per_slot"] = ratio(float64(st.frames), float64(st.slots))
	out.layers["wire.bytes_per_block"] = ratio(float64(st.wireBytes), float64(st.slots*nodes))
	out.layers["transport.drops"] = float64(st.drops)
	out.layers["node.retries"] = float64(st.retries)
}
