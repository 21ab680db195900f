package signature

import "sort"

// Bounded top-k selection for MatchMasked. The old tail sorted every
// surviving match and truncated; at fleet-scale databases with MinScore 0
// that holds (and sorts) the whole scope. The selector keeps at most topK
// candidates in a bounded heap instead, under a total order, so selection
// cost is O(matches · log topK) and both the index and the scan path
// produce the same, fully deterministic ranking.

// scored pairs a match with its global entry index. The index is the final
// tie-break: score descending, then problem ascending (the ordering Match
// always promised), then insertion order — a total order, so results no
// longer depend on which code path generated the candidates or on
// sort.Slice's unstable handling of full ties.
type scored struct {
	m   Match
	idx int32
}

// better reports whether a ranks strictly before b.
func better(a, b scored) bool {
	if a.m.Score != b.m.Score {
		return a.m.Score > b.m.Score
	}
	if a.m.Problem != b.m.Problem {
		return a.m.Problem < b.m.Problem
	}
	return a.idx < b.idx
}

// selector accumulates candidate matches and yields the ranked result.
// It is ready to use once k and entries are set.
type selector struct {
	k       int      // bound; <= 0 keeps everything
	entries []Entry  // the DB's entries, which add indexes into
	heap    []scored // k > 0: min-heap with the worst kept candidate at the root
	all     []scored // k <= 0: plain accumulation, sorted at the end
}

// add offers entry idx with its score.
func (s *selector) add(idx int32, score float64) {
	c := scored{m: Match{Entry: s.entries[idx], Score: score}, idx: idx}
	if s.k <= 0 {
		s.all = append(s.all, c)
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, c)
		s.up(len(s.heap) - 1)
		return
	}
	if better(c, s.heap[0]) {
		s.heap[0] = c
		s.down(0, len(s.heap))
	}
}

// up sifts the element at i toward the root while it is worse than its
// parent (the root holds the worst kept candidate).
func (s *selector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(s.heap[parent], s.heap[i]) {
			break // parent ranks no earlier than child: heap order holds
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// down restores the heap property from i within heap[:n]: every parent must
// rank no better than its children (worst at the root).
func (s *selector) down(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && better(s.heap[worst], s.heap[l]) {
			worst = l
		}
		if r < n && better(s.heap[worst], s.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.heap[i], s.heap[worst] = s.heap[worst], s.heap[i]
		i = worst
	}
}

// results returns the ranked matches, best first. Nil when nothing was kept
// (matching the scan's historical nil-slice result for empty outcomes).
func (s *selector) results() []Match {
	if s.k <= 0 {
		if len(s.all) == 0 {
			return nil
		}
		sort.Slice(s.all, func(i, j int) bool { return better(s.all[i], s.all[j]) })
		out := make([]Match, len(s.all))
		for i, c := range s.all {
			out[i] = c.m
		}
		return out
	}
	if len(s.heap) == 0 {
		return nil
	}
	// Heap extraction: repeatedly remove the worst remaining candidate and
	// fill the result from the back, leaving best-first order.
	out := make([]Match, len(s.heap))
	for j := len(s.heap) - 1; j >= 0; j-- {
		out[j] = s.heap[0].m
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		if last > 1 {
			s.down(0, last)
		}
	}
	return out
}
