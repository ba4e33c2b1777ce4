package twoldag

import (
	"context"
	"testing"
)

// TestSparseTopologyFacade drives a short simulated run over each
// re-exported sparse generator, pinning that the facade path (generate
// → WithTopology → RunSlots) works end to end.
func TestSparseTopologyFacade(t *testing.T) {
	sw, err := SmallWorld(SmallWorldConfig{Nodes: 24, K: 2, Beta: 0.2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gc, err := GeoClustered(GeoClusteredConfig{Nodes: 24, ClusterSize: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Topology{"smallworld": sw, "geoclustered": gc} {
		rt, err := New(
			WithSimulator(), WithTopology(g), WithSeed(9),
			WithGamma(3), WithDifficulty(0),
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sd := rt.(*SimDriver)
		if err := sd.RunSlots(30); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := sd.Report()
		if rep.Blocks != 24*30 {
			t.Fatalf("%s: blocks = %d, want %d", name, rep.Blocks, 24*30)
		}
		if rep.Audits == 0 {
			t.Fatalf("%s: no audits ran", name)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSampleProofEndToEnd(t *testing.T) {
	c := testCluster(t, 10, 3)
	ctx := context.Background()
	c.AdvanceSlot()
	// A body spanning several Merkle leaves.
	body := make([]byte, 4096)
	for i := range body {
		body[i] = byte(i)
	}
	var ref Ref
	for _, id := range c.Nodes() {
		r, err := c.Submit(ctx, id, body)
		if err != nil {
			t.Fatal(err)
		}
		if id == c.Nodes()[0] {
			ref = r
		}
	}
	for s := 0; s < 3; s++ {
		c.AdvanceSlot()
		for _, id := range c.Nodes() {
			if _, err := c.Submit(ctx, id, body); err != nil {
				t.Fatal(err)
			}
		}
	}

	validator := c.Nodes()[9]
	res, err := c.Audit(ctx, validator, ref)
	if err != nil || !res.Consensus {
		t.Fatalf("audit: %v", err)
	}
	sp, err := c.ProveSample(ref, 2)
	if err != nil {
		t.Fatalf("ProveSample: %v", err)
	}
	if err := c.VerifySample(res, sp); err != nil {
		t.Fatalf("VerifySample: %v", err)
	}
	// Tampered sample must fail against the audited header.
	sp.Leaf[0] ^= 0xFF
	if err := c.VerifySample(res, sp); err == nil {
		t.Fatal("tampered sample verified")
	}
}

func TestSampleProofRequiresConsensus(t *testing.T) {
	c := testCluster(t, 6, 1)
	refs := fill(t, c, 2)
	sp, err := c.ProveSample(refs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	bogus := &AuditResult{Target: refs[0]}
	if err := c.VerifySample(bogus, sp); err == nil {
		t.Fatal("sample verified against a non-consensus audit")
	}
}

func TestDynamicJoin(t *testing.T) {
	c := testCluster(t, 8, 2)
	fill(t, c, 2)
	joiner, err := c.Join()
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !c.Topology().Has(joiner) || c.Topology().Degree(joiner) == 0 {
		t.Fatal("joiner not wired into the radio graph")
	}
	ctx := context.Background()
	// The joiner participates: submits blocks and vouches in audits.
	c.AdvanceSlot()
	var refs []Ref
	for _, id := range c.Nodes() {
		r, err := c.Submit(ctx, id, []byte("post-join"))
		if err != nil {
			t.Fatalf("submit after join (%v): %v", id, err)
		}
		refs = append(refs, r)
	}
	c.AdvanceSlot()
	for _, id := range c.Nodes() {
		if _, err := c.Submit(ctx, id, []byte("post-join-2")); err != nil {
			t.Fatal(err)
		}
	}
	// The joiner can itself audit.
	res, err := c.Audit(ctx, joiner, refs[0])
	if err != nil {
		t.Fatalf("joiner audit: %v", err)
	}
	if !res.Consensus {
		t.Fatal("joiner failed to audit")
	}
	// And the joiner's own data can be audited by others.
	var joinerRef Ref
	for _, r := range refs {
		if r.Node == joiner {
			joinerRef = r
		}
	}
	res2, err := c.Audit(ctx, c.Nodes()[0], joinerRef)
	if err != nil {
		t.Fatalf("auditing joiner data: %v", err)
	}
	if !res2.Consensus {
		t.Fatal("joiner's data unverifiable")
	}
}

func TestJoinThenSilenceLifecycle(t *testing.T) {
	c := testCluster(t, 8, 1)
	fill(t, c, 2)
	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Silence(id); err != nil {
		t.Fatalf("silencing joiner: %v", err)
	}
	// Cluster still functions.
	c.AdvanceSlot()
	anchor := c.Nodes()[0]
	if _, err := c.Submit(context.Background(), anchor, []byte("after churn")); err != nil {
		t.Fatalf("submit after churn: %v", err)
	}
}
