package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/twoldag/twoldag/internal/attack"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
)

// TestParallelSchedulerIsDeterministic asserts the acceptance criterion
// of the parallel slot scheduler: the same Seed must produce an
// identical Report — every storage/comm/consensus series and per-node
// sample — for any worker count, on sparse generated topologies as
// well as the default random-geometric one. All three slot phases run
// range-chunked on the worker pool, so this covers the receiver-batched
// announcement phase too: per-receiver batches keep (sender,
// slot-order) ordering, making cache contents — and hence the Report —
// independent of delivery scheduling. Each topology runs under four
// seeds drawn from a fixed master seed.
func TestParallelSchedulerIsDeterministic(t *testing.T) {
	topos := []struct {
		name  string
		graph func(t *testing.T, seed int64) *topology.Graph
	}{
		{"geometric", func(t *testing.T, seed int64) *topology.Graph { return nil }}, // smallConfig's Topo
		{"smallworld", func(t *testing.T, seed int64) *topology.Graph {
			g, err := topology.SmallWorld(topology.SmallWorldConfig{Nodes: 12, K: 2, Beta: 0.3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"geoclustered", func(t *testing.T, seed int64) *topology.Graph {
			g, err := topology.GeoClustered(topology.GeoClusteredConfig{Nodes: 12, ClusterSize: 4, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	master := rand.New(rand.NewSource(42))
	seeds := make([]int64, 4)
	for i := range seeds {
		seeds[i] = master.Int63n(1 << 31)
	}
	for _, tc := range topos {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				run := func(workers int) *Report {
					t.Helper()
					cfg := smallConfig(seed)
					cfg.Graph = tc.graph(t, seed)
					cfg.Malicious = 2
					cfg.Behavior = attack.KindSilent
					cfg.RetainVerifiedBlocks = true
					cfg.Workers = workers
					s, err := New(cfg)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					defer s.Close()
					rep, err := s.Run()
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					return rep
				}
				serial := run(1)
				if serial.Audits == 0 {
					t.Fatalf("seed %d: no audits ran", seed)
				}
				for _, workers := range []int{2, 8} {
					if got := run(workers); !reflect.DeepEqual(serial, got) {
						t.Fatalf("seed %d: Workers=%d diverged from serial run:\nserial:   %+v\nparallel: %+v",
							seed, workers, serial, got)
					}
				}
			}
		})
	}
}

// churnRun drives the slotted scheduler through a run with mid-run
// membership churn: a stretch of slots, then a Silence and a JoinNode,
// then more slots.
func churnRun(t *testing.T, workers int) *Report {
	t.Helper()
	cfg := smallConfig(42)
	cfg.Malicious = 2
	cfg.Behavior = attack.KindSilent
	cfg.RetainVerifiedBlocks = true
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RunSlots(14); err != nil {
		t.Fatal(err)
	}
	// Silence the first honest node (deterministic across runs: ids are
	// in construction order and the behavior assignment is seeded).
	var victim identity.NodeID
	found := false
	for _, id := range s.ids {
		if !s.IsMalicious(id) {
			victim, found = id, true
			break
		}
	}
	if !found {
		t.Fatal("no honest node to silence")
	}
	if err := s.Silence(victim); err != nil {
		t.Fatal(err)
	}
	// Join a fresh node next to the newest device, mirroring the public
	// facade's joiner placement.
	g := s.Graph()
	joiner := s.ids[len(s.ids)-1] + 1
	for g.Has(joiner) {
		joiner++
	}
	anchor := s.ids[len(s.ids)-1]
	ap, _ := g.Position(anchor)
	if err := g.AddNode(joiner, topology.Point{X: ap.X + g.CommRange()/2, Y: ap.Y}); err != nil {
		t.Fatal(err)
	}
	if g.Degree(joiner) == 0 {
		if err := g.Link(anchor, joiner); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.JoinNode(joiner); err != nil {
		t.Fatal(err)
	}
	if err := s.RunSlots(16); err != nil {
		t.Fatal(err)
	}
	return s.Finalize()
}

// TestChurnSchedulerIsDeterministic extends the worker-count
// equivalence to a run with malicious nodes, retention accounting and
// mid-run Silence/JoinNode churn: every worker count must reproduce
// the serial Report exactly.
func TestChurnSchedulerIsDeterministic(t *testing.T) {
	want := churnRun(t, 1)
	if want.Audits == 0 {
		t.Fatal("no audits ran")
	}
	for _, workers := range []int{2, 4} {
		if got := churnRun(t, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from the serial run:\nserial: %+v\ngot:    %+v", workers, want, got)
		}
	}
}

// TestCloseIsIdempotent closes a simulation twice and requires Step to
// refuse to run afterwards.
func TestCloseIsIdempotent(t *testing.T) {
	s, err := New(smallConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if err := s.Step(); err == nil {
		t.Fatal("Step on a closed simulation succeeded")
	}
}

// TestParallelSchedulerRepeatable runs the default (GOMAXPROCS) worker
// pool twice: scheduling jitter must never leak into the report.
func TestParallelSchedulerRepeatable(t *testing.T) {
	run := func() *Report {
		t.Helper()
		cfg := smallConfig(7)
		cfg.RandomPeriodMax = 2
		// Capped H_i: eviction order must be as repeatable as insertion.
		cfg.TrustCap = 8
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}
