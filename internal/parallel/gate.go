package parallel

import (
	"context"
	"sync/atomic"
)

// Gate is a concurrency-limiting admission gate: a counting semaphore
// whose Acquire honours context cancellation. Long-running servers
// (cmd/mdserve) admit at most n (NewGate's argument) requests into the expensive
// reduce/query paths at once; excess requests wait until a slot frees or
// their deadline expires, bounding both CPU oversubscription and the
// peak memory of concurrently-built query modules.
//
// Long-lived holders (streaming query sessions, which keep a slot for
// the whole conversation rather than one request) are admitted through
// AcquireStream, which draws from a reserved sub-quota of n-1 slots
// (floored at 1): streams can never occupy every slot, so one-shot requests
// cannot be starved by an arbitrary number of open streams, and the gate
// accounts for them separately (Streams()).
type Gate struct {
	slots chan struct{}
	// streamSlots sub-limits long-lived holders; a stream holds one
	// streamSlot AND one regular slot (acquired in that order, released
	// in reverse, so the two semaphores cannot deadlock against each
	// other).
	streamSlots chan struct{}
	streams     atomic.Int64
}

// NewGate returns a gate admitting at most n concurrent holders.
// n < 1 is clamped to 1 (a gate that admits nothing would deadlock every
// caller).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	streamCap := n - 1
	if streamCap < 1 {
		// A 1-slot gate cannot reserve a slot for one-shots and still
		// admit streams at all; admitting one stream is the lesser evil.
		streamCap = 1
	}
	return &Gate{
		slots:       make(chan struct{}, n),
		streamSlots: make(chan struct{}, streamCap),
	}
}

// Acquire blocks until a slot is free or ctx is done, returning ctx.Err()
// in the latter case. A free slot is preferred over a concurrently-done
// context.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire. Releasing a slot
// that was never acquired is a programming error and panics.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("parallel: Gate.Release without matching Acquire")
	}
}

// AcquireStream admits a long-lived holder: it blocks until both a
// stream slot (of the reserved sub-quota) and a regular slot
// are free, or ctx is done, returning ctx.Err() in the latter case.
// Release with ReleaseStream.
func (g *Gate) AcquireStream(ctx context.Context) error {
	select {
	case g.streamSlots <- struct{}{}:
	default:
		select {
		case g.streamSlots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if err := g.Acquire(ctx); err != nil {
		<-g.streamSlots
		return err
	}
	g.streams.Add(1)
	return nil
}

// ReleaseStream frees the pair of slots taken by AcquireStream.
// Releasing without a matching AcquireStream is a programming error and
// panics.
func (g *Gate) ReleaseStream() {
	if g.streams.Add(-1) < 0 {
		g.streams.Add(1)
		panic("parallel: Gate.ReleaseStream without matching AcquireStream")
	}
	g.Release()
	<-g.streamSlots
}

// InFlight returns the number of slots currently held.
func (g *Gate) InFlight() int { return len(g.slots) }

// Streams returns the number of long-lived holders currently admitted
// through AcquireStream.
func (g *Gate) Streams() int64 { return g.streams.Load() }
