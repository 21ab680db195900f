package invariant

import (
	"math"
	"sync"
	"testing"
)

// pearsonish is a cheap association for tests: 1 for identical slices,
// else a bounded score derived from mean absolute difference.
func testAssoc(x, y []float64) float64 {
	var d float64
	for i := range x {
		d += math.Abs(x[i] - y[i])
	}
	d /= float64(len(x))
	s := 1 / (1 + d)
	return s
}

func TestPairMask(t *testing.T) {
	k := NewPairMask(4, true)
	if !k.OK(0, 1) || !k.OK(2, 3) {
		t.Fatal("allOK mask has false pairs")
	}
	if k.KnownCount() != 6 {
		t.Fatalf("KnownCount = %d, want 6", k.KnownCount())
	}
	k.Set(1, 3, false)
	if k.OK(3, 1) {
		t.Fatal("Set(1,3,false) not visible via (3,1)")
	}
	if k.KnownCount() != 5 {
		t.Fatalf("KnownCount = %d, want 5", k.KnownCount())
	}
}

func TestComputeMaskedMatrixNilMask(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
	}
	// A clean window (nil mask, finite samples) is the all-known case: no
	// pair mask at all, every pair scored over the raw rows.
	want, mask, err := ComputeMatrix(rows, nil, testAssoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mask != nil {
		t.Fatalf("clean window returned a pair mask with %d known pairs", mask.KnownCount())
	}
	// An explicit all-true mask takes the overlap path and must agree.
	valid := make([][]bool, len(rows))
	for i := range valid {
		valid[i] = make([]bool, len(rows[i]))
		for t := range valid[i] {
			valid[i][t] = true
		}
	}
	a, mask, err := ComputeMatrix(rows, valid, testAssoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mask.KnownCount() != 3 {
		t.Fatalf("all pairs should be known, got %d", mask.KnownCount())
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if want.Get(i, j) != testAssoc(rows[i], rows[j]) {
				t.Fatalf("clean(%d,%d)=%v, assoc=%v", i, j, want.Get(i, j), testAssoc(rows[i], rows[j]))
			}
			if a.Get(i, j) != want.Get(i, j) {
				t.Fatalf("masked(%d,%d)=%v, unmasked=%v", i, j, a.Get(i, j), want.Get(i, j))
			}
		}
	}
}

// TestComputeMatrixMaskShapeErrors: a validity mask must match the metric
// rows row for row — a ragged mask row is rejected, not indexed past its
// end — and a window the scorer cannot cover needs an association function.
func TestComputeMatrixMaskShapeErrors(t *testing.T) {
	const n = 12
	rows := make([][]float64, 3)
	valid := make([][]bool, 3)
	for m := range rows {
		rows[m] = make([]float64, n)
		valid[m] = make([]bool, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t * (m + 1))
			valid[m][t] = true
		}
	}
	ragged := [][]bool{valid[0], {true, true, true}, valid[2]}
	if _, _, err := ComputeMatrix(rows, ragged, testAssoc, nil); err == nil {
		t.Error("ragged mask row should error")
	}
	if _, _, err := ComputeMatrix(rows, valid[:2], testAssoc, nil); err == nil {
		t.Error("mask row count mismatch should error")
	}
	if _, _, err := ComputeMatrix(rows, nil, nil, nil); err == nil {
		t.Error("neither scorer nor assoc should error")
	}
	if _, _, err := ComputeMatrix(rows, valid, nil, pairSum{}); err == nil {
		t.Error("masked window without assoc should error")
	}
	if _, _, err := ComputeMatrix(rows, nil, nil, pairSum{}); err != nil {
		t.Errorf("clean window scored by scorer alone: %v", err)
	}
}

func TestComputeMaskedMatrixUnknownPairs(t *testing.T) {
	n := 12
	rows := make([][]float64, 3)
	valid := make([][]bool, 3)
	for m := range rows {
		rows[m] = make([]float64, n)
		valid[m] = make([]bool, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t + m)
			valid[m][t] = true
		}
	}
	// Metric 2 is almost entirely lost: < minSamples overlap with anyone.
	for t := 0; t < n-3; t++ {
		valid[2][t] = false
	}
	a, mask, err := ComputeMatrix(rows, valid, testAssoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mask.OK(0, 1) {
		t.Fatal("pair (0,1) should be computable")
	}
	if mask.OK(0, 2) || mask.OK(1, 2) {
		t.Fatal("pairs involving the lost metric should be unknown")
	}
	if a.Get(0, 2) != 0 || a.Get(1, 2) != 0 {
		t.Fatal("unknown pairs should score 0")
	}
}

func TestComputeMaskedMatrixNaNExcluded(t *testing.T) {
	n := 16
	rows := make([][]float64, 2)
	for m := range rows {
		rows[m] = make([]float64, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t)
		}
	}
	rows[0][3] = math.NaN() // no mask, but NaN must still be excluded
	a, mask, err := ComputeMatrix(rows, nil, func(x, y []float64) float64 {
		for _, v := range append(append([]float64(nil), x...), y...) {
			if math.IsNaN(v) {
				t.Fatal("NaN reached the association function")
			}
		}
		return 1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mask.OK(0, 1) || a.Get(0, 1) != 1 {
		t.Fatal("pair with one NaN tick should still be computable from the rest")
	}
}

// countingScorer records which pairs it was asked to score. The matrix
// fill calls Score from its worker goroutines, so the record is locked.
type countingScorer struct {
	rows   [][]float64
	mu     sync.Mutex
	scored map[Pair]bool
}

func (c *countingScorer) Score(i, j int) float64 {
	c.mu.Lock()
	c.scored[Pair{i, j}] = true
	c.mu.Unlock()
	return testAssoc(c.rows[i], c.rows[j])
}

func TestComputeMaskedMatrixScored(t *testing.T) {
	n := 12
	rows := make([][]float64, 4)
	valid := make([][]bool, 4)
	for m := range rows {
		rows[m] = make([]float64, n)
		valid[m] = make([]bool, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t + 2*m)
			valid[m][t] = true
		}
	}
	valid[3][0] = false // metric 3 has partial overlap everywhere

	plainMat, plainMask, err := ComputeMatrix(rows, valid, testAssoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := &countingScorer{rows: rows, scored: make(map[Pair]bool)}
	scoredMat, scoredMask, err := ComputeMatrix(rows, valid, testAssoc, sc)
	if err != nil {
		t.Fatal(err)
	}
	// The scorer computes the same measure, so results must be identical
	// to the nil-scorer path pair for pair.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if scoredMat.Get(i, j) != plainMat.Get(i, j) {
				t.Errorf("pair (%d,%d): scored %v, plain %v", i, j, scoredMat.Get(i, j), plainMat.Get(i, j))
			}
			if scoredMask.OK(i, j) != plainMask.OK(i, j) {
				t.Errorf("pair (%d,%d): scored known=%v, plain known=%v", i, j, scoredMask.OK(i, j), plainMask.OK(i, j))
			}
		}
	}
	// Only full-overlap pairs may go through the scorer; every pair
	// touching metric 3 (partial overlap) must take the assoc fallback.
	for p := range sc.scored {
		if p.I == 3 || p.J == 3 {
			t.Errorf("partial-overlap pair %v went through the batch scorer", p)
		}
	}
	if !sc.scored[Pair{0, 1}] {
		t.Error("full-overlap pair (0,1) should use the batch scorer")
	}
}

// TestViolationsMasked pins the masking step of the dense oracle: pairs
// the mask marks uncomputable read unknown, never violated, and a nil mask
// (clean window) leaves the Violations tuple as is with every pair known.
func TestViolationsMasked(t *testing.T) {
	base := map[Pair]float64{
		{0, 1}: 0.9,
		{0, 2}: 0.9,
		{1, 2}: 0.9,
	}
	set := NewSet(3, base)
	ab := NewMatrix(3)
	ab.Set(0, 1, 0.9) // holds
	ab.Set(0, 2, 0.1) // violated, but will be masked unknown
	ab.Set(1, 2, 0.1) // violated
	mask := NewPairMask(3, true)
	mask.Set(0, 2, false)
	tuple, err := set.Violations(ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	known := maskTuple(set, tuple, mask)
	// Sorted pair order: (0,1), (0,2), (1,2).
	if tuple[0] || !known[0] {
		t.Fatalf("pair (0,1): tuple=%v known=%v, want holds/known", tuple[0], known[0])
	}
	if tuple[1] || known[1] {
		t.Fatalf("pair (0,2): tuple=%v known=%v, want unknown (not violated)", tuple[1], known[1])
	}
	if !tuple[2] || !known[2] {
		t.Fatalf("pair (1,2): tuple=%v known=%v, want violated/known", tuple[2], known[2])
	}

	// Nil mask reduces to the plain Violations.
	tuple2, err := set.Violations(ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plain := append([]bool(nil), tuple2...)
	if known2 := maskTuple(set, tuple2, nil); known2 != nil {
		t.Fatalf("nil mask produced known flags %v", known2)
	}
	for k := range plain {
		if tuple2[k] != plain[k] {
			t.Fatalf("nil-mask oracle diverges from Violations at %d", k)
		}
	}
}
