package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expired returns an already-cancelled context: Acquire and
// AcquireStream still take a free slot under it (the fast path) but
// return at once when none is free.
func expired() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestGateAdmitsUpToCapacity(t *testing.T) {
	g := NewGate(2)
	if g.Acquire(expired()) != nil || g.Acquire(expired()) != nil {
		t.Fatal("could not take the two free slots")
	}
	if g.Acquire(expired()) == nil {
		t.Fatal("Acquire succeeded beyond capacity")
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight() = %d, want 2", g.InFlight())
	}
	g.Release()
	if g.Acquire(expired()) != nil {
		t.Fatal("released slot not reusable")
	}
	g.Release()
	g.Release()
}

func TestGateAcquireHonorsContext(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire on empty gate: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Acquire on full gate = %v, want DeadlineExceeded", err)
	}
	g.Release()
	// A free slot beats an already-done context (fast path).
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if err := g.Acquire(done); err != nil {
		t.Fatalf("Acquire with free slot and done ctx = %v, want nil", err)
	}
	g.Release()
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewGate(1).Release()
}

// TestGateBoundsConcurrency runs many goroutines through a small gate
// under -race and pins that the observed high-water concurrency never
// exceeds the gate's capacity.
func TestGateBoundsConcurrency(t *testing.T) {
	const capacity = 3
	g := NewGate(capacity)
	var inFlight, highWater atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := inFlight.Add(1)
			for {
				hw := highWater.Load()
				if n <= hw || highWater.CompareAndSwap(hw, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if hw := highWater.Load(); hw > capacity {
		t.Fatalf("high-water concurrency %d exceeds gate capacity %d", hw, capacity)
	}
	if g.InFlight() != 0 {
		t.Fatalf("gate not drained: %d in flight", g.InFlight())
	}
}

func TestGateClampsCapacity(t *testing.T) {
	for _, n := range []int{0, -5} {
		g := NewGate(n)
		if g.Acquire(expired()) != nil {
			t.Fatalf("NewGate(%d) admits nothing, want one holder", n)
		}
		if g.Acquire(expired()) == nil {
			t.Fatalf("NewGate(%d) admits a second holder, want one", n)
		}
	}
}

func TestGateStreamQuotaLeavesOneShotSlot(t *testing.T) {
	g := NewGate(3)
	ctx := context.Background()
	if err := g.AcquireStream(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireStream(ctx); err != nil {
		t.Fatal(err)
	}
	if g.Streams() != 2 || g.InFlight() != 2 {
		t.Fatalf("Streams()=%d InFlight()=%d, want 2/2", g.Streams(), g.InFlight())
	}
	// The stream quota is exhausted; a third stream must time out even
	// though a regular slot is still free...
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := g.AcquireStream(short); err != context.DeadlineExceeded {
		t.Fatalf("third stream: err=%v, want deadline exceeded", err)
	}
	// ...and that regular slot is still available to a one-shot request.
	if g.Acquire(expired()) != nil {
		t.Fatal("streams starved the reserved one-shot slot")
	}
	g.Release()
	g.ReleaseStream()
	g.ReleaseStream()
	if g.Streams() != 0 || g.InFlight() != 0 {
		t.Fatalf("after release: Streams()=%d InFlight()=%d, want 0/0", g.Streams(), g.InFlight())
	}
}

func TestGateStreamBlockedOnRegularSlotReleasesQuota(t *testing.T) {
	// With every regular slot held by one-shots, a stream acquire must
	// fail at the deadline and give its stream-quota slot back.
	g := NewGate(2)
	if g.Acquire(expired()) != nil || g.Acquire(expired()) != nil {
		t.Fatal("could not fill the gate")
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.AcquireStream(short); err != context.DeadlineExceeded {
		t.Fatalf("stream on full gate: err=%v, want deadline exceeded", err)
	}
	g.Release()
	// The failed acquire must not leak its stream slot: a 2-slot gate
	// reserves one stream slot, so a leak would make this acquire hang.
	ok, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := g.AcquireStream(ok); err != nil {
		t.Fatalf("stream after freeing a slot: %v", err)
	}
	g.ReleaseStream()
	g.Release()
}

func TestGateReleaseStreamWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReleaseStream without AcquireStream did not panic")
		}
	}()
	NewGate(2).ReleaseStream()
}

func TestGateSingleSlotStillAdmitsStreams(t *testing.T) {
	g := NewGate(1)
	if err := g.AcquireStream(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.AcquireStream(expired()) == nil {
		t.Fatal("a 1-slot gate admitted a second stream")
	}
	g.ReleaseStream()
}
