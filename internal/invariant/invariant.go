// Package invariant implements the paper's observable-likely-invariant
// layer (§2, §3.3):
//
//   - pairwise association matrices over the M collected metrics, computed
//     with a pluggable association measure (MIC in InvarNet-X, ARX fitness
//     in the baseline);
//   - Algorithm 1, invariant selection: a metric pair (m,n) is an invariant
//     when its association scores over N normal runs stay within a range of
//     tau (Max(V) − Min(V) < tau), with the invariant's baseline value set
//     to Max(V);
//   - violation detection: under an abnormal window, pair (m,n) is violated
//     when |I(m,n) − A(m,n)| ≥ epsilon. The binary violation tuple over the
//     invariant set is the problem signature.
package invariant

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Default thresholds from the paper.
const (
	// DefaultTau is the invariant-selection stability threshold (§3.3).
	DefaultTau = 0.2
	// DefaultEpsilon is the violation threshold (§2).
	DefaultEpsilon = 0.2
)

// ErrNoRuns is returned when selection receives no training matrices.
var ErrNoRuns = errors.New("invariant: no training runs")

// AssociationFunc computes a symmetric association score in [0, 1] for a
// metric pair. mic.MIC and arx.Association both satisfy it.
type AssociationFunc func(x, y []float64) float64

// Matrix holds the pairwise association scores of M metrics (upper
// triangle, i < j).
type Matrix struct {
	M      int
	scores []float64
}

// NewMatrix returns a zero matrix over m metrics.
func NewMatrix(m int) *Matrix {
	return &Matrix{M: m, scores: make([]float64, m*(m-1)/2)}
}

// index maps (i, j), i < j, to flat storage.
func (a *Matrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || j >= a.M || i < 0 {
		panic(fmt.Sprintf("invariant: bad pair (%d,%d) for M=%d", i, j, a.M))
	}
	// Offset of row i plus column distance.
	return i*(2*a.M-i-1)/2 + (j - i - 1)
}

// Get returns the score of pair (i, j).
func (a *Matrix) Get(i, j int) float64 { return a.scores[a.index(i, j)] }

// Set stores the score of pair (i, j).
func (a *Matrix) Set(i, j int, v float64) { a.scores[a.index(i, j)] = v }

// Pairs returns the number of stored pairs, M(M-1)/2.
func (a *Matrix) Pairs() int { return len(a.scores) }

// PairScorer scores a metric pair by index. It decouples the matrix fill
// from how scores are produced: mic.Batch satisfies it structurally (shared
// per-metric preprocessing), and any closure-backed adapter works for other
// measures. The invariant package stays free of a mic dependency.
type PairScorer interface {
	Score(i, j int) float64
}

// checkWindow validates a window for the matrix fill or the edge walk: the
// metric rows share one length, the validity mask (when present) matches
// them row for row, and assoc is present unless scorer alone can cover the
// window. It reports whether the window is clean — no validity mask and
// every sample finite. A clean window scores every pair over the raw rows;
// anything else runs the per-pair overlap path.
func checkWindow(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer) (isClean bool, err error) {
	if len(rows) == 0 {
		return false, fmt.Errorf("invariant: empty window")
	}
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			return false, fmt.Errorf("invariant: metric %d has %d samples, want %d", i, len(r), n)
		}
	}
	if valid != nil {
		if len(valid) != len(rows) {
			return false, fmt.Errorf("invariant: %d mask rows for %d metrics", len(valid), len(rows))
		}
		for i, v := range valid {
			if len(v) != n {
				return false, fmt.Errorf("invariant: mask row %d has %d samples, want %d", i, len(v), n)
			}
		}
	}
	isClean = valid == nil
	for i := 0; isClean && i < len(rows); i++ {
		for _, v := range rows[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				isClean = false
				break
			}
		}
	}
	if assoc == nil && (scorer == nil || !isClean) {
		return false, errors.New("invariant: no association function for a window the scorer cannot cover")
	}
	return isClean, nil
}

// usableRow flags the ticks of metric i that exist and are finite (nil
// valid means every tick is genuine).
func usableRow(rows [][]float64, valid [][]bool, i int) []bool {
	u := make([]bool, len(rows[i]))
	for t, v := range rows[i] {
		u[t] = !math.IsNaN(v) && !math.IsInf(v, 0) && (valid == nil || valid[i][t])
	}
	return u
}

// overlap appends to xs, ys the samples of metrics i and j at the ticks
// both have usable.
func overlap(rows [][]float64, ui, uj []bool, i, j int, xs, ys []float64) ([]float64, []float64) {
	for t := range ui {
		if ui[t] && uj[t] {
			xs = append(xs, rows[i][t])
			ys = append(ys, rows[j][t])
		}
	}
	return xs, ys
}

// rowOffset returns the flat upper-triangle index of pair (i, i+1): row i
// starts after i*(2m−i−1)/2 earlier pairs. It matches Matrix.index.
func rowOffset(m, i int) int { return i * (2*m - i - 1) / 2 }

// pairAt inverts the flat upper-triangle index: the pair (i, j) stored at
// position k. The row solves rowOffset(m,i) <= k < rowOffset(m,i+1); the
// closed-form root is fixed up with at most a step or two of adjustment to
// absorb floating-point rounding at large m.
func pairAt(m, k int) (i, j int) {
	d := float64((2*m-1)*(2*m-1) - 8*k)
	i = int((float64(2*m-1) - math.Sqrt(d)) / 2)
	if i > m-2 {
		i = m - 2
	}
	for i > 0 && rowOffset(m, i) > k {
		i--
	}
	for i < m-2 && rowOffset(m, i+1) <= k {
		i++
	}
	return i, i + 1 + (k - rowOffset(m, i))
}

// forEachPair runs work(i, j) exactly once for every pair i < j of m
// metrics, distributing *individual pairs* over a bounded worker pool via a
// shared atomic counter. Each worker gets a private closure from newWorker
// so it can hold scratch buffers without synchronisation. Pair granularity
// matters: the row-sharded split this replaces handed worker w all pairs of
// row w, so the worker holding row 0 carried m−1 scores while the one
// holding row m−2 carried a single score, and the pool capped itself at m
// workers even when pairs outnumbered CPUs. With one usable worker (or one
// pair) the loop runs serially — no goroutines, bit-identical order.
func forEachPair(m int, newWorker func() func(i, j int)) {
	pairs := m * (m - 1) / 2
	workers := runtime.GOMAXPROCS(0)
	if workers > pairs {
		workers = pairs
	}
	if workers <= 1 {
		work := newWorker()
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				work(i, j)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := newWorker()
			for {
				k := int(next.Add(1)) - 1
				if k >= pairs {
					return
				}
				i, j := pairAt(m, k)
				work(i, j)
			}
		}()
	}
	wg.Wait()
}

// Pair identifies a metric pair, I < J.
type Pair struct {
	I, J int
}

// DefaultMinSamples is the smallest number of overlapping valid samples a
// pair needs for its association to be computable under a degraded
// telemetry window (matches mic.MinSamples).
const DefaultMinSamples = 8

// PairMask records which pairs of an association matrix carry a computable
// score. Pairs whose metrics were unavailable (agent outage, dropped or
// corrupt samples) are *unknown*: the diagnosis layer must treat them as
// neither holding nor violated.
type PairMask struct {
	M  int
	ok []bool // flat upper-triangle indexing, as Matrix
}

// NewPairMask returns a mask over m metrics with every pair set to allOK.
func NewPairMask(m int, allOK bool) *PairMask {
	k := &PairMask{M: m, ok: make([]bool, m*(m-1)/2)}
	if allOK {
		for i := range k.ok {
			k.ok[i] = true
		}
	}
	return k
}

func (k *PairMask) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || j >= k.M || i < 0 {
		panic(fmt.Sprintf("invariant: bad pair (%d,%d) for M=%d", i, j, k.M))
	}
	return i*(2*k.M-i-1)/2 + (j - i - 1)
}

// OK reports whether pair (i, j) has a computable score.
func (k *PairMask) OK(i, j int) bool { return k.ok[k.index(i, j)] }

// Set marks pair (i, j) computable or not.
func (k *PairMask) Set(i, j int, v bool) { k.ok[k.index(i, j)] = v }

// KnownCount returns how many pairs are computable.
func (k *PairMask) KnownCount() int {
	n := 0
	for _, v := range k.ok {
		if v {
			n++
		}
	}
	return n
}

// ComputeMatrix builds the association matrix of the metric rows (rows[m]
// is the time series of metric m; all rows share a length). This is the
// paper's "simple but exhaustive pair-wise search" — at M=26 metrics, 325
// MIC dynamic programmes per run, the dominant cost of offline training
// (Table 1, Invar-C column) — so pairs are fanned out individually over a
// bounded worker pool.
//
// On a clean window (nil valid, every sample finite) each pair is scored
// through scorer when one is given — typically a mic.Batch, whose shared
// per-metric preprocessing spares every pair the sorting and partitioning
// an AssociationFunc repeats — and through assoc over the raw rows
// otherwise; the returned mask is nil (every pair known).
//
// Any other window may have missing or corrupt samples: valid[m][t] false
// excludes tick t from every pair involving metric m, and a non-finite
// value is excluded likewise. A pair is computable only when at least
// DefaultMinSamples ticks survive for both metrics; other pairs score 0
// and are unknown in the returned mask. A computable pair whose every tick
// survived still rides scorer; a partial-overlap pair compacts the
// surviving ticks through assoc, since the scorer's preprocessing covers
// the full rows only. assoc may be nil only for a clean window scored
// through scorer.
func ComputeMatrix(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer) (*Matrix, *PairMask, error) {
	if len(rows) < 2 {
		return nil, nil, fmt.Errorf("invariant: need >= 2 metrics, got %d", len(rows))
	}
	isClean, err := checkWindow(rows, valid, assoc, scorer)
	if err != nil {
		return nil, nil, err
	}
	m, n := len(rows), len(rows[0])
	a := NewMatrix(m)
	if isClean {
		forEachPair(m, func() func(i, j int) {
			if scorer != nil {
				return func(i, j int) { a.Set(i, j, scorer.Score(i, j)) }
			}
			return func(i, j int) { a.Set(i, j, assoc(rows[i], rows[j])) }
		})
		return a, nil, nil
	}
	usable := make([][]bool, m)
	for i := range rows {
		usable[i] = usableRow(rows, valid, i)
	}
	mask := NewPairMask(m, false)
	forEachPair(m, func() func(i, j int) {
		// Per-worker overlap buffers, reused across the worker's pairs.
		xs := make([]float64, 0, n)
		ys := make([]float64, 0, n)
		return func(i, j int) {
			xs, ys = overlap(rows, usable[i], usable[j], i, j, xs[:0], ys[:0])
			if len(xs) < DefaultMinSamples {
				return // unknown: mask stays false, score stays 0
			}
			if scorer != nil && len(xs) == n {
				// Full overlap: the compacted series equal the raw rows, so
				// the batch scorer's answer is the same value without the
				// per-pair preprocessing.
				a.Set(i, j, scorer.Score(i, j))
			} else {
				a.Set(i, j, assoc(xs, ys))
			}
			mask.Set(i, j, true)
		}
	})
	return a, mask, nil
}

// Set is a selected invariant set: the stable pairs and their baseline
// association values.
type Set struct {
	M     int
	Base  map[Pair]float64
	pairs []Pair // sorted, cached
}

// Select implements Algorithm 1: keep pair (m,n) when the range of its
// association scores across the N run matrices is under tau. All matrices
// must have the same dimension.
//
// Deviation from the paper's pseudocode, documented in DESIGN.md: the
// stored baseline is the midpoint (Max(V)+Min(V))/2 rather than Max(V).
// With Max as the baseline, a fresh normal window whose score lands just
// epsilon below the *best* training score is flagged as a violation even
// though it sits inside the observed normal range; centering the baseline
// gives the violation test symmetric headroom and halves the noise in the
// violation tuples without changing which genuine breaks register (a broken
// association drops far below any normal-state score).
func Select(runs []*Matrix, tau float64) (*Set, error) {
	if len(runs) == 0 {
		return nil, ErrNoRuns
	}
	m := runs[0].M
	for _, r := range runs[1:] {
		if r.M != m {
			return nil, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, r.M)
		}
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	s := &Set{M: m, Base: make(map[Pair]float64)}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range runs {
				v := r.Get(i, j)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi-lo < tau {
				s.Base[Pair{i, j}] = (hi + lo) / 2
			}
		}
	}
	s.buildPairList()
	return s, nil
}

// NewSet builds a Set directly from baseline values (used when loading a
// persisted invariant file).
func NewSet(m int, base map[Pair]float64) *Set {
	s := &Set{M: m, Base: make(map[Pair]float64, len(base))}
	for p, v := range base {
		if p.I > p.J {
			p = Pair{p.J, p.I}
		}
		s.Base[p] = v
	}
	s.buildPairList()
	return s
}

func (s *Set) buildPairList() {
	s.pairs = s.pairs[:0]
	for p := range s.Base {
		s.pairs = append(s.pairs, p)
	}
	sort.Slice(s.pairs, func(a, b int) bool {
		if s.pairs[a].I != s.pairs[b].I {
			return s.pairs[a].I < s.pairs[b].I
		}
		return s.pairs[a].J < s.pairs[b].J
	})
}

// SortedPairs returns the invariant pairs in deterministic order — the
// coordinate system of every violation tuple derived from this set.
func (s *Set) SortedPairs() []Pair { return s.pairs }

// Len returns the number of invariants.
func (s *Set) Len() int { return len(s.pairs) }

// Violations returns the binary violation tuple of the abnormal association
// matrix against the invariant baselines: entry k is true when
// |base − abnormal| ≥ epsilon for the k-th sorted pair.
func (s *Set) Violations(abnormal *Matrix, epsilon float64) ([]bool, error) {
	if abnormal.M != s.M {
		return nil, fmt.Errorf("invariant: matrix dimension %d, invariant set dimension %d", abnormal.M, s.M)
	}
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	out := make([]bool, len(s.pairs))
	for k, p := range s.pairs {
		if violatedVerdict(s.Base[p], abnormal.Get(p.I, p.J), epsilon) {
			out[k] = true
		}
	}
	return out, nil
}

// violatedVerdict is the single violation test shared by Violations and the
// edge walk (sparse.go): |base − score| ≥ epsilon, with a small slack making
// the comparison robust to floating-point representation of differences
// that are exactly epsilon. Keeping it in one place is what lets the edge
// walk guarantee verdicts identical to a full matrix fill + Violations.
func violatedVerdict(base, score, epsilon float64) bool {
	const slack = 1e-9
	return math.Abs(base-score) >= epsilon-slack
}
