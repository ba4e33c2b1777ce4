package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"github.com/twoldag/twoldag"
)

// eventTally counts the runtime's typed event stream — the sample
// consumer for twoldag.WithObserver.
type eventTally struct {
	twoldag.NopObserver
	sealed, announced, hops atomic.Int64
}

func (t *eventTally) OnBlockSealed(twoldag.BlockSealed) { t.sealed.Add(1) }
func (t *eventTally) OnDigestBatchDelivered(e twoldag.DigestBatchDelivered) {
	t.announced.Add(int64(len(e.Digests)))
}
func (t *eventTally) OnAuditHop(twoldag.AuditHop) { t.hops.Add(1) }

// runDemo is the original single-process demo: the whole cluster lives
// in this process, whichever fabric carries its frames.
func runDemo(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	nodes := fs.Int("nodes", 20, "number of IoT nodes")
	slots := fs.Int("slots", 12, "data-generation slots to run")
	gamma := fs.Int("gamma", 4, "PoP consensus threshold γ")
	audits := fs.Int("audits", 5, "number of random audits to run")
	seed := fs.Int64("seed", 1, "random seed")
	transport := fs.String("transport", "mem", "message fabric: mem or tcp (tcp = one loopback listener per node, still a single process; use serve/join for cross-host)")
	workers := fs.Int("workers", 0, "audit worker pool size (0 = GOMAXPROCS)")
	topoOnly := fs.Bool("topo", false, "print topology statistics and exit")
	fs.Parse(args)

	kind := twoldag.InMemory
	if *transport == "tcp" {
		kind = twoldag.TCP
	}
	tally := &eventTally{}
	rt, err := twoldag.New(
		twoldag.WithNodes(*nodes),
		twoldag.WithGamma(*gamma),
		twoldag.WithSeed(*seed),
		twoldag.WithTransport(kind),
		twoldag.WithWorkers(*workers),
		twoldag.WithObserver(tally),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "building runtime: %v\n", err)
		return 1
	}
	defer rt.Close()

	stats := rt.Topology().Summary()
	fmt.Printf("topology: %d nodes, %d edges, degree %.1f avg [%d..%d], diameter %d (%s transport)\n",
		stats.Nodes, stats.Edges, stats.AvgDegree, stats.MinDegree, stats.MaxDegree, stats.Diameter, kind)
	if *topoOnly {
		return 0
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(*seed))
	ids := rt.Nodes()
	var refs []twoldag.Ref
	for s := 0; s < *slots; s++ {
		rt.AdvanceSlot()
		batch := make([]twoldag.Submission, len(ids))
		for i, id := range ids {
			batch[i] = twoldag.Submission{
				Node: id,
				Data: []byte(fmt.Sprintf("sensor %v reading @slot %d", id, s)),
			}
		}
		got, err := rt.SubmitBatch(ctx, batch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "submit batch slot %d: %v\n", s, err)
			return 1
		}
		refs = append(refs, got...)
	}
	fmt.Printf("generated %d blocks over %d slots (one announcement flush per slot)\n", len(refs), *slots)

	reqs := make([]twoldag.AuditRequest, *audits)
	for k := range reqs {
		target := refs[rng.Intn(len(refs)/2)] // audit the older half
		validator := ids[rng.Intn(len(ids))]
		for validator == target.Node {
			validator = ids[rng.Intn(len(ids))]
		}
		reqs[k] = twoldag.AuditRequest{Validator: validator, Ref: target}
	}
	for _, out := range rt.AuditMany(ctx, reqs) {
		if out.Err != nil {
			fmt.Printf("audit %v by %v: FAILED: %v\n", out.Request.Ref, out.Request.Validator, out.Err)
			continue
		}
		res := out.Result
		fmt.Printf("audit %v by %v: consensus=%v vouchers=%v path=%d msgs=%d trustHits=%d\n",
			out.Request.Ref, out.Request.Validator, res.Consensus, len(res.Vouchers), len(res.Path),
			res.MessagesSent+res.MessagesReceived, res.TrustHits)
	}
	fmt.Printf("events: %d blocks sealed, %d digests delivered, %d audit hops\n",
		tally.sealed.Load(), tally.announced.Load(), tally.hops.Load())
	return 0
}
