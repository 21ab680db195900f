package invariant

import (
	"math"
	"reflect"
	"testing"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// synthWindow builds m metric rows over n ticks: metrics [0, coupled) are
// tight monotone functions of one hidden driver (every pair among them is a
// strong invariant), the rest are independent noise. broken lists coupled
// metrics to decouple (replaced by fresh noise) — the violation injection.
func synthWindow(rng *stats.RNG, m, n, coupled int, broken []int) [][]float64 {
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	isBroken := map[int]bool{}
	for _, b := range broken {
		isBroken[b] = true
	}
	for t := 0; t < n; t++ {
		base := rng.Uniform(0, 1)
		for i := 0; i < m; i++ {
			switch {
			case i < coupled && !isBroken[i]:
				rows[i][t] = float64(i+1)*base + rng.Normal(0, 0.01)
			default:
				rows[i][t] = rng.Normal(0, 1)
			}
		}
	}
	return rows
}

// trainSet selects invariants from a few normal windows.
func trainSet(t *testing.T, rng *stats.RNG, m, n, coupled int) *Set {
	t.Helper()
	var runs []*Matrix
	for r := 0; r < 4; r++ {
		rows := synthWindow(rng, m, n, coupled, nil)
		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mat, _, err := ComputeMatrix(rows, nil, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mat)
	}
	set, err := Select(runs, DefaultTau)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("training selected no invariants")
	}
	return set
}

// denseViolations is the dense reference pipeline, kept as the oracle of
// the edge walk: the full matrix fill, Violations over it, then the pair
// mask (known nil on a clean window, unknown pairs never violated).
func denseViolations(t *testing.T, set *Set, rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer, eps float64) (tuple, known []bool) {
	t.Helper()
	mat, mask, err := ComputeMatrix(rows, valid, assoc, scorer)
	if err != nil {
		t.Fatal(err)
	}
	tuple, err = set.Violations(mat, eps)
	if err != nil {
		t.Fatal(err)
	}
	return tuple, maskTuple(set, tuple, mask)
}

// maskTuple applies a fill's pair mask to a Violations tuple over set: it
// clears unknown coordinates in place and returns the known flags, or nil
// when mask is nil (every pair known).
func maskTuple(set *Set, tuple []bool, mask *PairMask) []bool {
	if mask == nil {
		return nil
	}
	known := make([]bool, len(tuple))
	for k, p := range set.SortedPairs() {
		known[k] = mask.OK(p.I, p.J)
		tuple[k] = tuple[k] && known[k]
	}
	return known
}

// TestComputeEdgesScoredMatchesDense: the sparse path (with the prescreen
// engaged through mic.Batch) must produce the exact violation tuple the
// dense matrix fill + Violations produces, on healthy and broken windows.
func TestComputeEdgesScoredMatchesDense(t *testing.T) {
	rng := stats.NewRNG(2100)
	const m, n, coupled = 10, 30, 6
	set := trainSet(t, rng, m, n, coupled)
	eps := DefaultEpsilon
	for rep := 0; rep < 10; rep++ {
		var broken []int
		if rep%2 == 1 {
			broken = []int{1, 3}
		}
		rows := synthWindow(rng, m, n, coupled, broken)
		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := denseViolations(t, set, rows, nil, nil, b, eps)
		got, st, err := set.ComputeEdgesScored(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rep %d: sparse tuple %v != dense %v (stats %+v)", rep, got, want, st)
		}
		if st.Screened+st.Exact != set.Len() || st.Skipped != 0 {
			t.Errorf("rep %d: stats %+v do not cover %d edges", rep, st, set.Len())
		}
		if broken == nil && st.Screened == 0 {
			t.Errorf("rep %d: healthy window screened nothing — prescreen has no teeth", rep)
		}
		// The rows-taking walk on the same clean window is the all-known
		// case of the same loop: identical tuple and tiers, nil known.
		gotM, knownM, stM, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotM, want) || knownM != nil || stM != st {
			t.Errorf("rep %d: clean masked walk (%v,%v,%+v) != scored walk (%v,%+v)", rep, gotM, knownM, stM, got, st)
		}
	}
}

// TestComputeEdgesMaskedMatchesDense: degraded windows — random validity
// masks and injected NaNs — must reproduce the dense masked pipeline's
// tuple and known flags exactly.
func TestComputeEdgesMaskedMatchesDense(t *testing.T) {
	rng := stats.NewRNG(2101)
	const m, n, coupled = 10, 40, 6
	set := trainSet(t, rng, m, n, coupled)
	eps := DefaultEpsilon
	for rep := 0; rep < 10; rep++ {
		var broken []int
		if rep%3 == 1 {
			broken = []int{2}
		}
		rows := synthWindow(rng, m, n, coupled, broken)
		valid := make([][]bool, m)
		for i := range valid {
			valid[i] = make([]bool, n)
			for t := range valid[i] {
				valid[i][t] = rng.Float64() > 0.15
			}
		}
		// One metric fully outaged, one NaN slipping past the mask.
		for t := 0; t < n; t++ {
			valid[m-1][t] = rep%2 == 0
		}
		rows[0][5] = math.NaN()

		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		wantTuple, wantKnown := denseViolations(t, set, rows, valid, mic.MIC, b, eps)
		gotTuple, gotKnown, st, err := set.ComputeEdgesMasked(rows, valid, mic.MIC, b, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotTuple, wantTuple) || !reflect.DeepEqual(gotKnown, wantKnown) {
			t.Errorf("rep %d: sparse (%v,%v) != dense (%v,%v)", rep, gotTuple, gotKnown, wantTuple, wantKnown)
		}
		if st.Screened+st.Exact+st.Skipped != set.Len() {
			t.Errorf("rep %d: stats %+v do not cover %d edges", rep, st, set.Len())
		}
	}
}

// TestComputeEdgesMaskedNilScorer: without a batch scorer every computable
// pair takes the assoc path, still matching the dense reference — on a
// clean window (nil known) and on a degraded one.
func TestComputeEdgesMaskedNilScorer(t *testing.T) {
	rng := stats.NewRNG(2102)
	const m, n, coupled = 6, 30, 4
	set := trainSet(t, rng, m, n, coupled)
	rows := synthWindow(rng, m, n, coupled, []int{1})
	degraded := make([][]float64, m)
	for i := range rows {
		degraded[i] = append([]float64(nil), rows[i]...)
	}
	degraded[2][3] = math.NaN()
	for _, win := range [][][]float64{rows, degraded} {
		wantTuple, wantKnown := denseViolations(t, set, win, nil, mic.MIC, nil, DefaultEpsilon)
		gotTuple, gotKnown, st, err := set.ComputeEdgesMasked(win, nil, mic.MIC, nil, DefaultEpsilon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotTuple, wantTuple) || !reflect.DeepEqual(gotKnown, wantKnown) {
			t.Errorf("sparse (%v,%v) != dense (%v,%v)", gotTuple, gotKnown, wantTuple, wantKnown)
		}
		if st.Screened != 0 {
			t.Errorf("nil scorer screened %d pairs", st.Screened)
		}
	}
}

// TestComputeEdgesErrors pins the structural error cases.
func TestComputeEdgesErrors(t *testing.T) {
	set := NewSet(4, map[Pair]float64{{0, 1}: 0.9})
	if _, _, err := set.ComputeEdgesScored(nil, 0.2); err == nil {
		t.Error("nil scorer should error")
	}
	rows := [][]float64{{1, 2}, {1, 2}} // wrong metric count
	if _, _, _, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, nil, 0.2); err == nil {
		t.Error("dimension mismatch should error")
	}
	bad := [][]float64{{1}, {1, 2}, {1, 2}, {1, 2}}
	if _, _, _, err := set.ComputeEdgesMasked(bad, nil, mic.MIC, nil, 0.2); err == nil {
		t.Error("ragged rows should error")
	}
	ok := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	if _, _, _, err := set.ComputeEdgesMasked(ok, [][]bool{{true}}, mic.MIC, nil, 0.2); err == nil {
		t.Error("mask dimension mismatch should error")
	}
	// Right mask row count, but one row covers 3 of 12 ticks.
	long := make([][]float64, 4)
	valid := make([][]bool, 4)
	for i := range long {
		long[i] = make([]float64, 12)
		valid[i] = make([]bool, 12)
		for t := range valid[i] {
			long[i][t] = float64(t)
			valid[i][t] = true
		}
	}
	valid[1] = []bool{true, true, true}
	if _, _, _, err := set.ComputeEdgesMasked(long, valid, mic.MIC, nil, 0.2); err == nil {
		t.Error("ragged mask row should error")
	}
	if _, _, _, err := set.ComputeEdgesMasked(long, nil, nil, nil, 0.2); err == nil {
		t.Error("neither scorer nor assoc should error")
	}
}
