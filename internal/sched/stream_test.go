package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ddg"
	"repro/internal/loopgen"
	"repro/internal/machines"
	"repro/internal/parallel"
	"repro/internal/query"
)

// sliceStream serves loops one at a time, as loopgen.Stream does, and
// reports a call made after it has returned false.
type sliceStream struct {
	t     *testing.T
	loops []*ddg.Graph
	i     int
	done  atomic.Bool
}

func (s *sliceStream) next() (*ddg.Graph, bool) {
	if s.done.Load() {
		s.t.Errorf("next called again after it returned false")
	}
	if s.i == len(s.loops) {
		s.done.Store(true)
		return nil, false
	}
	s.i++
	return s.loops[s.i-1], true
}

// TestScheduleStreamMatchesBatch pins the channel-fed pipeline against
// ScheduleBatch over the same loops: loop, failure, II, MII and
// decision sums equal the batch's results, and the query counters equal
// one arena's pass over the loops, for channel capacities 1, 7, 64 and
// 256 over corpora of exact multiples of the capacity (and one that is
// not), at one and two workers.
func TestScheduleStreamMatchesBatch(t *testing.T) {
	m := machines.Cydra5()
	factory := reducedBitvecFactory(t, m.Expand())
	cfg := DefaultConfig()
	corpus, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(512))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ chunk, loops int }{
		{1, 5}, {7, 21}, {7, 23}, {64, 128}, {256, 256}, {256, 512},
	} {
		loops := corpus[:tc.loops]
		var want StreamStats
		for _, r := range ScheduleBatch(loops, m, factory, cfg, 2) {
			want.Loops++
			if r.OK {
				want.SumII += int64(r.II)
			} else {
				want.Failed++
			}
			want.SumMII += int64(r.MII)
			want.Decisions += int64(r.Decisions)
		}
		a := NewArena(factory)
		for _, g := range loops {
			a.Schedule(g, m, cfg)
		}
		want.Counters = a.Counters()
		for _, workers := range []int{1, 2} {
			s := &sliceStream{t: t, loops: loops}
			got := ScheduleStream(s.next, m, factory, cfg, workers, tc.chunk)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chunk %d, %d loops, %d workers: stream stats differ from the batch\ngot:  %+v\nwant: %+v",
					tc.chunk, tc.loops, workers, got, want)
			}
		}
	}
}

// settledGoroutines waits briefly for the goroutine count to fall to at
// most base and returns the last count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// streamPanic runs ScheduleStream and returns what it panicked with.
func streamPanic(next func() (*ddg.Graph, bool), factory ModuleFactory, workers, chunk int) (p any) {
	defer func() { p = recover() }()
	ScheduleStream(next, machines.Cydra5(), factory, DefaultConfig(), workers, chunk)
	return nil
}

// TestScheduleStreamPropagatesPanics pins that a panic while a streamed
// loop is scheduled (a factory failing on its N-th module) or inside
// next reaches the caller as a *parallel.WorkerPanic holding the
// original value, and that the generator and workers have all exited.
func TestScheduleStreamPropagatesPanics(t *testing.T) {
	m := machines.Cydra5()
	e := m.Expand()
	corpus, err := loopgen.GenerateStrata(m, loopgen.DefaultStrata(200))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		for _, chunk := range []int{1, 7, 256} {
			name := fmt.Sprintf("workers %d chunk %d", workers, chunk)

			var built atomic.Int64
			factory := func(ii int) query.Module {
				if built.Add(1) == 3 {
					panic("module 3 refused")
				}
				return query.NewDiscrete(e, ii)
			}
			s := &sliceStream{t: t, loops: corpus}
			wantPanic(t, name+" factory", streamPanic(s.next, factory, workers, chunk), "module 3 refused")

			calls := 0
			next := func() (*ddg.Graph, bool) {
				calls++
				if calls == 40 {
					panic("generator broke")
				}
				return corpus[calls%len(corpus)], true
			}
			wantPanic(t, name+" next", streamPanic(next, discreteFactory(e), workers, chunk), "generator broke")

			if n := settledGoroutines(base); n > base {
				t.Fatalf("%s: %d goroutines left running, %d before", name, n, base)
			}
		}
	}
}

func wantPanic(t *testing.T, name string, p any, value string) {
	t.Helper()
	wp, ok := p.(*parallel.WorkerPanic)
	if !ok {
		t.Fatalf("%s: recovered %T (%v), want *parallel.WorkerPanic", name, p, p)
	}
	if wp.Value != value {
		t.Fatalf("%s: panic value %v, want %q", name, wp.Value, value)
	}
	if !strings.Contains(wp.Stack, "ScheduleStream") {
		t.Errorf("%s: worker stack does not name ScheduleStream:\n%s", name, wp.Stack)
	}
}
