package twoldag

import (
	"context"
	"runtime"
	"testing"
	"time"
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

// TestCloseReleasesGoroutines: a durable facade run over either fabric
// — batched WAL commits, a Silence/Restart cycle in the middle — leaves
// no node loop, connection reader or WAL committer behind after Close.
func TestCloseReleasesGoroutines(t *testing.T) {
	for _, kind := range []TransportKind{InMemory, TCP} {
		t.Run(kind.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rt, err := New(
				WithNodes(5), WithGamma(1), WithSeed(3), WithDifficulty(2),
				WithTransport(kind), WithDataDir(t.TempDir()), WithSyncPolicy(SyncBatch()),
			)
			if err != nil {
				t.Fatal(err)
			}
			c := rt.(*Cluster)
			ctx := context.Background()
			slot := func(tag byte) {
				t.Helper()
				rt.AdvanceSlot()
				var batch []Submission
				for _, id := range rt.Nodes() {
					if c.running(id) {
						batch = append(batch, Submission{Node: id, Data: []byte{tag, byte(id)}})
					}
				}
				if _, err := rt.SubmitBatch(ctx, batch); err != nil {
					t.Fatalf("slot %d: %v", tag, err)
				}
			}
			slot(1)
			slot(2)
			if err := rt.Silence(1); err != nil {
				t.Fatal(err)
			}
			slot(3)
			if err := c.Restart(1); err != nil {
				t.Fatal(err)
			}
			slot(4)
			if err := rt.Close(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, baseline)
		})
	}
}
