package invariant

import "fmt"

// This file is the edge walk: the online-diagnosis counterpart of the
// exhaustive matrix fill. Training must search every pair (the invariant
// network is unknown), but diagnosis only ever reads the pairs that
// survived selection — the paper's likely-invariant network is sparse
// (§3.3) — so filling the full M×M matrix per window wastes most of its
// work. ComputeEdgesMasked and ComputeEdgesScored evaluate exactly the
// trained pair list and emit the violation tuple directly, with a prescreen
// tier in front of the exact scorer: when the scorer can certify a cheap
// lower bound that pins the pair inside its tolerance band, the expensive
// association computation is skipped. The prescreen can only ever certify
// "still holding" (a lower bound says nothing about violations), so every
// suspicious pair falls through to the exact path and the verdicts match
// a full ComputeMatrix + Violations.

// Prescreener is the optional fast tier of a PairScorer: ScreenLow returns
// a conservative lower bound on Score(i, j), or 0 when no cheap certificate
// exists. mic.Batch satisfies it with an O(n) equipartition bound.
type Prescreener interface {
	ScreenLow(i, j int) float64
}

// EdgeStats counts how the edge walk resolved the trained pairs of one
// evaluation: Screened pairs were certified by the prescreen lower bound,
// Exact pairs ran the full association computation, Skipped pairs were
// reported unknown (insufficient valid overlap under a degraded window).
type EdgeStats struct {
	Screened int
	Exact    int
	Skipped  int
}

// screenCertifiesHolding reports whether a prescreen lower bound lb proves
// pair verdict "not violated" without the exact score. Two conditions pin
// the score inside the tolerance band: the band's upper edge must lie above
// 1 (scores are clamped to [0,1], so the high side cannot violate), and lb
// must clear the band's lower edge. The slack mirrors violatedVerdict: the
// exact test flags |base − score| ≥ epsilon − slack, so holding means
// score > base − (epsilon − slack), which lb > base − (epsilon − slack)
// implies for any score ≥ lb.
func screenCertifiesHolding(base, lb, epsilon float64) bool {
	const slack = 1e-9
	eff := epsilon - slack
	return base+eff > 1 && lb > base-eff
}

// ComputeEdgesScored evaluates only the trained invariant pairs of a clean
// window against a pair scorer and returns their violation tuple
// (coordinates as SortedPairs, identical to Violations over a full matrix).
// When the scorer also implements Prescreener, pairs whose lower bound
// certifies the invariant still holds skip the exact computation; the
// verdicts are unaffected because the certificate is one-sided. The scorer
// must cover all s.M metrics of the window being diagnosed.
func (s *Set) ComputeEdgesScored(scorer PairScorer, epsilon float64) ([]bool, EdgeStats, error) {
	if scorer == nil {
		return nil, EdgeStats{}, fmt.Errorf("invariant: nil scorer")
	}
	tuple, _, st := s.walkEdges(nil, nil, nil, nil, scorer, epsilon)
	return tuple, st, nil
}

// ComputeEdgesMasked evaluates the trained pairs of a metric window whose
// samples may be missing or corrupt, with the per-pair semantics of
// ComputeMatrix followed by Violations: on a clean window (nil valid, every
// sample finite) every pair is known — known is nil — and scores through
// scorer, or assoc over the raw rows when scorer is nil. Otherwise a pair
// with fewer than DefaultMinSamples overlapping usable ticks is unknown
// (known[k] false, counted as Skipped), a full-overlap pair rides scorer,
// and a partial-overlap pair compacts the surviving ticks through assoc.
// Pairs that reach the scorer pass its prescreen tier first.
func (s *Set) ComputeEdgesMasked(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer, epsilon float64) (tuple, known []bool, st EdgeStats, err error) {
	if len(rows) != s.M {
		return nil, nil, EdgeStats{}, fmt.Errorf("invariant: %d metric rows, invariant set dimension %d", len(rows), s.M)
	}
	isClean, err := checkWindow(rows, valid, assoc, scorer)
	if err != nil {
		return nil, nil, EdgeStats{}, err
	}
	var usable [][]bool
	if !isClean {
		usable = make([][]bool, s.M)
	}
	tuple, known, st = s.walkEdges(rows, valid, usable, assoc, scorer, epsilon)
	return tuple, known, st, nil
}

// walkEdges is the one loop over the trained pairs. usable is nil on a
// clean window; otherwise its rows are filled lazily, only for metrics a
// trained pair touches, so the walk stays proportional to the edge set.
// There the pair's overlap decides known vs unknown, and a pair the scorer
// cannot cover goes straight to assoc over the surviving ticks. Every other
// pair takes the prescreen certificate when the scorer offers one, then
// the exact score. known is nil on a clean window.
func (s *Set) walkEdges(rows [][]float64, valid, usable [][]bool, assoc AssociationFunc, scorer PairScorer, epsilon float64) (tuple, known []bool, st EdgeStats) {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	screen, _ := scorer.(Prescreener)
	tuple = make([]bool, len(s.pairs))
	var xs, ys []float64
	if usable != nil {
		known = make([]bool, len(s.pairs))
		xs = make([]float64, 0, len(rows[0]))
		ys = make([]float64, 0, len(rows[0]))
	}
	for k, p := range s.pairs {
		base := s.Base[p]
		if usable != nil {
			for _, i := range [2]int{p.I, p.J} {
				if usable[i] == nil {
					usable[i] = usableRow(rows, valid, i)
				}
			}
			xs, ys = overlap(rows, usable[p.I], usable[p.J], p.I, p.J, xs[:0], ys[:0])
			if len(xs) < DefaultMinSamples {
				st.Skipped++
				continue // unknown: both flags stay false
			}
			known[k] = true
			if scorer == nil || len(xs) < len(rows[0]) {
				st.Exact++
				tuple[k] = violatedVerdict(base, assoc(xs, ys), epsilon)
				continue
			}
		}
		if screen != nil {
			if lb := screen.ScreenLow(p.I, p.J); screenCertifiesHolding(base, lb, epsilon) {
				st.Screened++
				continue // tuple[k] stays false: not violated, certified
			}
		}
		st.Exact++
		var score float64
		if scorer != nil {
			score = scorer.Score(p.I, p.J)
		} else {
			score = assoc(rows[p.I], rows[p.J])
		}
		tuple[k] = violatedVerdict(base, score, epsilon)
	}
	return tuple, known, st
}
