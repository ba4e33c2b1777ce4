package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/twoldag/twoldag/internal/digest"
	"github.com/twoldag/twoldag/internal/faults"
	"github.com/twoldag/twoldag/internal/identity"
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
