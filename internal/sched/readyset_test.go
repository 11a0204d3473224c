package sched

import (
	"math/rand"
	"testing"
)

// linearPop is the linear maximum scan the ready set replaced: it picks
// the node of greatest height, ties to the lower index, from an unordered
// slice.
func linearPop(height []int, queue []int) (int, []int) {
	best := 0
	for i := 1; i < len(queue); i++ {
		a, b := queue[i], queue[best]
		if height[a] > height[b] || (height[a] == height[b] && a < b) {
			best = i
		}
	}
	v := queue[best]
	queue[best] = queue[len(queue)-1]
	return v, queue[:len(queue)-1]
}

// TestReadySetMatchesLinearPop drives the rank-bitset ready set and the
// linear-scan oracle through the same random interleaving of pushes
// (duplicates of queued nodes included, which both ignore) and pops,
// over heights with many ties and negative values and node counts that
// cross 64-bit word boundaries, and requires the identical pop sequence.
func TestReadySetMatchesLinearPop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := &state{sc: &schedScratch{}}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		height := make([]int, n)
		levels := 1 + rng.Intn(6)
		for v := range height {
			height[v] = rng.Intn(levels) - 2
		}
		s.height = height
		s.rankNodes() // reuses the previous trial's scratch
		var oracle []int
		inOracle := make([]bool, n)
		for step := 0; step < 6*n; step++ {
			if len(oracle) > 0 && rng.Intn(3) == 0 {
				got := s.pop()
				var want int
				want, oracle = linearPop(height, oracle)
				inOracle[want] = false
				if got != want {
					t.Fatalf("trial %d step %d: ready set popped %d, linear scan %d", trial, step, got, want)
				}
				continue
			}
			v := rng.Intn(n)
			s.push(v)
			if !inOracle[v] {
				inOracle[v] = true
				oracle = append(oracle, v)
			}
		}
		for len(oracle) > 0 {
			got := s.pop()
			var want int
			want, oracle = linearPop(height, oracle)
			if got != want {
				t.Fatalf("trial %d drain: ready set popped %d, linear scan %d", trial, got, want)
			}
		}
		if s.nready != 0 {
			t.Fatalf("trial %d: ready set holds %d nodes after the oracle drained", trial, s.nready)
		}
	}
}
