package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/block"
	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
	"github.com/twoldag/twoldag/internal/topology"
	"github.com/twoldag/twoldag/internal/transport"
	"github.com/twoldag/twoldag/internal/wire"
)

// waitGoroutines polls until the goroutine count is back at baseline,
// failing with a full stack dump if it stays above it.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStartFailedHelloReleasesDevice: when a durable host cannot
// complete its Hello round (every frame dropped), Start fails and takes
// the whole device down with it — node, listener, and the backend's
// WAL committer.
func TestStartFailedHelloReleasesDevice(t *testing.T) {
	h0, err := Start(Config{ID: 0, Nodes: 2, Seed: 7, Gamma: 1, Difficulty: 2, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Close()
	baseline := runtime.NumGoroutine()
	_, err = Start(Config{
		ID: 1, Nodes: 2, Seed: 7, Gamma: 1, Difficulty: 2,
		RequestTimeout: 200 * time.Millisecond,
		JoinAddr:       h0.Addr(),
		DataDir:        t.TempDir(),
		Plan:           faults.Plan{DropRate: 1},
	})
	if err == nil {
		t.Fatal("Start succeeded with every Hello dropped")
	}
	waitGoroutines(t, baseline)
}

// TestHostCloseReleasesGoroutines: durable hosts that seal and flush,
// with one of them closed and restarted from its data dir mid-run,
// leave no goroutine behind once every host closed.
func TestHostCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	cfg := func(id identity.NodeID) Config {
		return Config{
			ID: id, Nodes: 2, Seed: 7, Gamma: 1, Difficulty: 2,
			RequestTimeout: 2 * time.Second,
			DataDir:        filepath.Join(dir, fmt.Sprintf("node-%d", id)),
		}
	}
	h0, err := Start(cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	c1 := cfg(1)
	c1.JoinAddr = h0.Addr()
	h1, err := Start(c1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	slot := func(s uint32, hosts ...*Host) {
		t.Helper()
		ds := make([]digest.Digest, len(hosts))
		for i, h := range hosts {
			h.SetSlot(s)
			_, d, err := h.Seal([]byte{byte(s), byte(h.ID())})
			if err != nil {
				t.Fatalf("seal on %v: %v", h.ID(), err)
			}
			ds[i] = d
		}
		for i, h := range hosts {
			if err := h.Flush(ctx, ds[i:i+1]); err != nil {
				t.Fatalf("flush on %v: %v", h.ID(), err)
			}
		}
	}
	slot(1, h0, h1)
	slot(2, h0, h1)
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	slot(3, h0)
	if h1, err = Start(c1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	slot(4, h0, h1)
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h0.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// countingTransport counts the frames a device sends and, when drop
// is set, silently loses the first one.
type countingTransport struct {
	transport.Transport
	drop bool
	sent atomic.Int32
}

func (t *countingTransport) Send(ctx context.Context, to identity.NodeID, msg *wire.Message) error {
	if t.sent.Add(1) == 1 && t.drop {
		return nil
	}
	return t.Transport.Send(ctx, to, msg)
}

// TestRetriedFlushLeavesNewestDigest: a device announces [a, b] and
// the frame is lost. Each digest's wait then retries on its own
// jittered clock, so the resends can land in either order; whichever
// lands last, the neighbor's A_i must end on b. Without the loss the
// flush costs exactly one frame on the link.
func TestRetriedFlushLeavesNewestDigest(t *testing.T) {
	params := block.DefaultParams()
	params.Difficulty = 2
	g := topology.New(10)
	for id, x := range []float64{0, 1} {
		if err := g.AddNode(identity.NodeID(id), topology.Point{X: x}); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, drop := range []bool{true, false} {
			pairs := []identity.KeyPair{identity.Deterministic(0, seed), identity.Deterministic(1, seed)}
			ring, err := identity.RingFor(pairs)
			if err != nil {
				t.Fatal(err)
			}
			netw := transport.NewNetwork()
			tracker := NewAckTracker()
			var out *countingTransport
			devs := make([]*Device, len(pairs))
			for i, kp := range pairs {
				ep, err := netw.Endpoint(kp.ID)
				if err != nil {
					t.Fatal(err)
				}
				var tr transport.Transport = ep
				if i == 0 {
					out = &countingTransport{Transport: ep, drop: drop}
					tr = out
				}
				devs[i], err = NewDevice(DeviceConfig{
					Key: kp, Params: params, Topo: g, Ring: ring, Transport: tr,
					Clock:          func() uint32 { return 1 },
					Live:           func(identity.NodeID) bool { return true },
					Gamma:          1,
					RequestTimeout: time.Second,
					Retry:          faults.RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.5, Seed: seed},
					Tracker:        tracker,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			snd, rcv := devs[0], devs[1]
			_, a, err := snd.Seal([]byte("a"))
			if err != nil {
				t.Fatal(err)
			}
			_, b, err := snd.Seal([]byte("b"))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			var acks Acks
			if err := snd.Announce(ctx, []digest.Digest{a, b}, &acks); err != nil {
				t.Fatal(err)
			}
			err = acks.Await(ctx)
			cancel()
			if err != nil {
				t.Fatalf("seed %d, drop %v: %v", seed, drop, err)
			}
			if got, _ := rcv.node.Engine().Cache().Get(snd.ID()); got != b {
				t.Errorf("seed %d, drop %v: receiver holds %v, want the newest digest %v (older %v)", seed, drop, got, b, a)
			}
			if n := out.sent.Load(); !drop && n != 1 {
				t.Errorf("seed %d: loss-free flush sent %d frames, want 1", seed, n)
			}
			for _, d := range devs {
				_ = d.Close()
			}
			_ = netw.Close()
		}
	}
}
