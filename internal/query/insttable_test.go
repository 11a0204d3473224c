package query

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// instOracle is the map the instance table replaced, plus the
// assignment order the table's sequence stamps must reproduce.
type instOracle struct {
	m   map[int]instance
	seq map[int]int
	n   int
}

func newInstOracle() *instOracle {
	return &instOracle{m: map[int]instance{}, seq: map[int]int{}}
}

// instOp is one decoded table operation: kind 0 put, 1 take, 2 lookup,
// 3 clear.
type instOp struct {
	kind, id, op, cycle int
}

// collidingIDs returns ids whose Fibonacci hashes share their top 8
// bits, so they land on one home slot at every table size up to 256.
func collidingIDs(n int) []int {
	var out []int
	for id := 0; len(out) < n; id++ {
		if (uint32(id)*0x9E3779B9)>>24 == 0x5a {
			out = append(out, id)
		}
	}
	return out
}

// instIDPool mixes dense node-index ids, both ends of the legal range and
// ids crafted to collide.
func instIDPool() []int {
	pool := []int{0, 1, 2, 3, 4, 5, 17, 63, 64, math.MaxInt32, math.MaxInt32 - 1}
	return append(pool, collidingIDs(12)...)
}

// lookup is the table's read path: find, then the slot's instance.
func lookup(tb *instTable, id int) (instance, bool) {
	i := tb.find(instKey(id))
	if i < 0 {
		return instance{}, false
	}
	return tb.slots[i].inst(), true
}

// applyInstOps runs ops on a table and the map oracle, failing at the
// first answer or state that differs.
func applyInstOps(t *testing.T, ops []instOp) {
	t.Helper()
	var tb instTable
	or := newInstOracle()
	for step, o := range ops {
		switch o.kind {
		case 0:
			tb.put(o.id, o.op, o.cycle)
			or.m[o.id] = instance{o.op, o.cycle}
			or.n++
			or.seq[o.id] = or.n
		case 1:
			got, ok := tb.take(o.id)
			want, wok := or.m[o.id]
			if ok != wok || got != want {
				t.Fatalf("step %d: take(%d) = %v,%v, map %v,%v", step, o.id, got, ok, want, wok)
			}
			delete(or.m, o.id)
			delete(or.seq, o.id)
			if seq := tb.seqOf(o.id); seq != 0 {
				t.Fatalf("step %d: taken instance %d keeps stamp %d", step, o.id, seq)
			}
		case 2:
			got, ok := lookup(&tb, o.id)
			want, wok := or.m[o.id]
			if ok != wok || got != want {
				t.Fatalf("step %d: lookup(%d) = %v,%v, map %v,%v", step, o.id, got, ok, want, wok)
			}
		case 3:
			tb.clear()
			clear(or.m)
			clear(or.seq)
		}
		if tb.len() != len(or.m) {
			t.Fatalf("step %d: table holds %d instances, map %d", step, tb.len(), len(or.m))
		}
	}
	for id, want := range or.m {
		if got, ok := lookup(&tb, id); !ok || got != want {
			t.Fatalf("final: lookup(%d) = %v,%v, map %v", id, got, ok, want)
		}
	}
	for a := range or.m {
		for b := range or.m {
			if (or.seq[a] < or.seq[b]) != (tb.seqOf(a) < tb.seqOf(b)) {
				t.Fatalf("sequence stamps order %d and %d against their assignment order", a, b)
			}
		}
	}
	if got, want := tb.export(), len(or.m); len(got) != want {
		t.Fatalf("export holds %d instances, map %d", len(got), want)
	}
}

// TestInstTableMatchesMap drives the table and a map through random
// puts (re-puts of live ids included), takes (of absent ids included),
// lookups and clears over colliding, dense and extreme ids.
func TestInstTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := instIDPool()
	for trial := 0; trial < 200; trial++ {
		ops := make([]instOp, 50+rng.Intn(400))
		for i := range ops {
			o := instOp{id: pool[rng.Intn(len(pool))], op: rng.Intn(40), cycle: rng.Intn(200) - 50}
			if rng.Intn(4) == 0 {
				o.id = rng.Intn(math.MaxInt32)
			}
			switch r := rng.Intn(100); {
			case r < 45:
				o.kind = 0
			case r < 75:
				o.kind = 1
			case r < 99:
				o.kind = 2
			default:
				o.kind = 3
			}
			ops[i] = o
		}
		applyInstOps(t, ops)
	}
}

// TestInstTableCollisionsAndShifts fills one home slot's run, deletes
// from its middle and front, and re-puts, so backward shifting crosses
// the end of the slot array.
func TestInstTableCollisionsAndShifts(t *testing.T) {
	ids := collidingIDs(7)
	var ops []instOp
	for i, id := range ids {
		ops = append(ops, instOp{kind: 0, id: id, op: i, cycle: i})
	}
	for _, i := range []int{3, 0, 6, 1} {
		ops = append(ops, instOp{kind: 1, id: ids[i]})
		for _, id := range ids {
			ops = append(ops, instOp{kind: 2, id: id})
		}
	}
	ops = append(ops, instOp{kind: 0, id: ids[0], op: 9, cycle: -3}, instOp{kind: 0, id: ids[2], op: 8, cycle: 4})
	for _, id := range ids {
		ops = append(ops, instOp{kind: 2, id: id})
	}
	applyInstOps(t, ops)

	// The run wraps: a home slot near the end of a 16-slot table.
	var wrap []int
	for id := 0; len(wrap) < 5; id++ {
		if (uint32(id)*0x9E3779B9)>>28 == 15 {
			wrap = append(wrap, id)
		}
	}
	ops = ops[:0]
	for _, id := range wrap {
		ops = append(ops, instOp{kind: 0, id: id, op: 1, cycle: id})
	}
	for _, id := range wrap {
		ops = append(ops, instOp{kind: 1, id: id})
		for _, other := range wrap {
			ops = append(ops, instOp{kind: 2, id: other})
		}
	}
	applyInstOps(t, ops)
}

// TestInstTableRejectsOutOfRangeIDs pins that an id the 32-bit key
// cannot hold panics instead of aliasing another instance.
func TestInstTableRejectsOutOfRangeIDs(t *testing.T) {
	for _, id := range []int{-1, math.MinInt64, math.MaxInt32 + 1, math.MaxInt64} {
		for name, f := range map[string]func(*instTable){
			"put":  func(tb *instTable) { tb.put(id, 0, 0) },
			"take": func(tb *instTable) { tb.take(id) },
		} {
			var tb instTable
			tb.put(5, 1, 2)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, id)
					}
				}()
				f(&tb)
			}()
			if tb.len() != 1 {
				t.Errorf("%s(%d) changed the table", name, id)
			}
		}
	}
}

// TestInstTableClearKeepsCapacity pins that clear empties the table in
// place: refilling to the same size allocates nothing.
func TestInstTableClearKeepsCapacity(t *testing.T) {
	var tb instTable
	for id := 0; id < 100; id++ {
		tb.put(id, id, id)
	}
	allocs := testing.AllocsPerRun(20, func() {
		tb.clear()
		for id := 0; id < 100; id++ {
			tb.put(id, id, id)
		}
	})
	if allocs != 0 {
		t.Fatalf("clear and refill allocate %.1f times, want 0", allocs)
	}
}

// decodeInstOps turns fuzz bytes into table operations, four bytes each:
// kind, an id (from the pool, or raw 31-bit), op and cycle.
func decodeInstOps(data []byte) []instOp {
	pool := instIDPool()
	var ops []instOp
	for len(data) >= 4 {
		b := data[:4]
		data = data[4:]
		o := instOp{kind: int(b[0]) % 4, op: int(b[2]), cycle: int(int8(b[3]))}
		if o.kind == 3 && b[0]&0x30 != 0 {
			o.kind = 2 // keep clears rare
		}
		if b[1] < 0xc0 || len(data) < 4 {
			o.id = pool[int(b[1])%len(pool)]
		} else {
			o.id = int(binary.LittleEndian.Uint32(data) & math.MaxInt32)
			data = data[4:]
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzInstTable checks the instance table against the map oracle on
// operation sequences decoded from the fuzz input.
func FuzzInstTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 2, 2, 3, 1, 1, 0, 0, 2, 2, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 11, 5, 7, 0, 12, 6, 8, 1, 11, 0, 0}, 8))
	f.Add([]byte{0, 0xff, 1, 1, 0xff, 0xff, 0xff, 0x7f, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		applyInstOps(t, decodeInstOps(data))
	})
}
