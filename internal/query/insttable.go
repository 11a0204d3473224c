package query

import (
	"fmt"
	"math"
)

// instTable maps a scheduled instance id in [0, math.MaxInt32] to where
// the instance lives (op, cycle). It is an open-addressed hash table with
// linear probing: a Fibonacci hash of the 32-bit id picks the home slot,
// deletion shifts the following run back (no tombstones), and the table
// doubles once it is half full. Schedulers number instances by node
// index, so ids are small and dense and a lookup is about one probe.
//
// Every put also stamps the entry with a sequence number, increasing
// until clear, so a caller can tell which of two live instances was
// assigned last (Bitvector's update-mode owner rebuild).
//
// An id outside [0, math.MaxInt32] panics: the table keys on 32 bits and
// must never alias two ids silently.
type instTable struct {
	slots []instSlot // power-of-two length, or nil before the first put
	n     int        // live entries
	shift uint       // 32 - log2(len(slots))
	seq   uint64     // stamp of the last put
}

// instSlot is one table slot; key is id+1, so the zero slot is empty.
type instSlot struct {
	key   uint32
	op    int32
	cycle int
	seq   uint64
}

func (s *instSlot) id() int { return int(s.key) - 1 }

func (s *instSlot) inst() instance { return instance{op: int(s.op), cycle: s.cycle} }

const instTableMinSlots = 16

func instKey(id int) uint32 {
	if id < 0 || id > math.MaxInt32 {
		panic(fmt.Sprintf("query: instance id %d outside [0, %d]", id, math.MaxInt32))
	}
	return uint32(id) + 1
}

// home is the Fibonacci hash of key's id: the top log2(len(slots)) bits
// of id * 2^32/phi.
func (t *instTable) home(key uint32) int {
	return int(((key - 1) * 0x9E3779B9) >> t.shift)
}

// find returns the slot holding key, or -1.
func (t *instTable) find(key uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// len returns the number of live instances.
func (t *instTable) len() int { return t.n }

// put records id at (op, cycle), replacing a live entry for id, and
// stamps it with the next sequence number.
func (t *instTable) put(id, op, cycle int) {
	key := instKey(id)
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.seq++
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	if t.slots[i].key == 0 {
		t.n++
	}
	t.slots[i] = instSlot{key: key, op: int32(op), cycle: cycle, seq: t.seq}
}

// grow doubles the slot array and reinserts every entry, keeping its
// sequence stamp.
func (t *instTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < instTableMinSlots {
		size = instTableMinSlots
	}
	t.slots = make([]instSlot, size)
	t.shift = 32
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := size - 1
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// take removes id and returns its instance, reporting whether it was
// live. The run after the freed slot shifts back over it: an entry
// moves into the hole unless its home lies cyclically in (hole, its
// slot], which keeps every entry reachable from its home without
// tombstones.
func (t *instTable) take(id int) (instance, bool) {
	i := t.find(instKey(id))
	if i < 0 {
		return instance{}, false
	}
	in := t.slots[i].inst()
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].key)
		if (i <= j && i < h && h <= j) || (i > j && (i < h || h <= j)) {
			continue
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = instSlot{}
	t.n--
	return in, true
}

// seqOf returns the sequence stamp of id, or 0 if id is not live.
func (t *instTable) seqOf(id int) uint64 {
	i := t.find(instKey(id))
	if i < 0 {
		return 0
	}
	return t.slots[i].seq
}

// export copies the live instances into a fresh map (id -> op, cycle).
func (t *instTable) export() map[int]struct{ Op, Cycle int } {
	out := make(map[int]struct{ Op, Cycle int }, t.n)
	for _, s := range t.slots {
		if s.key != 0 {
			out[s.id()] = struct{ Op, Cycle int }{int(s.op), s.cycle}
		}
	}
	return out
}

// clear empties the table in place, keeping its capacity, and restarts
// the sequence.
func (t *instTable) clear() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
	t.seq = 0
}
