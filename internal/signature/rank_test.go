package signature

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"invarnetx/internal/stats"
)

// addTies appends extra entries that score exactly like existing ones: exact
// re-adds of random stored entries (same problem, same tuple, later
// insertion index) and copies filed under another problem. RankProblems must
// then pick the lowest insertion index among each problem's equal best
// scores, and order equal-scoring problems by name.
func addTies(rng *stats.RNG, db *DB, n int) {
	stored := db.Entries()
	if len(stored) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		e := stored[rng.Intn(len(stored))]
		if rng.Intn(3) == 0 {
			e.Problem = string(rune('a' + rng.Intn(6)))
		}
		db.Add(e)
	}
}

// rankOracle is the reference aggregation RankProblems replaces: every
// match materialised by MatchMasked(topK 0), collapsed per problem by
// BestProblem, then truncated to topK.
func rankOracle(db *DB, tuple Tuple, known []bool, ip, wl string, m Measure, topK int) ([]Match, error) {
	matches, err := db.MatchMasked(tuple, known, ip, wl, m, 0)
	if err != nil {
		return nil, err
	}
	ranked := BestProblem(matches)
	if topK > 0 && len(ranked) > topK {
		ranked = ranked[:topK]
	}
	return ranked, nil
}

// sameRanking fails unless got and want agree on nil-ness, length, and per
// position on the problem, the exact score bits and the representative
// entry.
func sameRanking(t *testing.T, tag string, got, want []Match) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%s: got %d causes (nil %v), want %d (nil %v)", tag, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: cause %d score %v, want %v", tag, i, got[i].Score, want[i].Score)
		}
		if !reflect.DeepEqual(got[i].Entry, want[i].Entry) {
			t.Fatalf("%s: cause %d entry %+v, want %+v", tag, i, got[i].Entry, want[i].Entry)
		}
	}
}

// rankBothPaths pins RankProblems against the reference aggregation on a
// DisableIndex clone, and checks that RankProblems advances the scan and
// index counters exactly as the MatchMasked query it replaces does on an
// identically configured database.
func rankBothPaths(t *testing.T, db *DB, tuple Tuple, known []bool, ip, wl string, m Measure, topK int, tag string) {
	t.Helper()
	ref := db.Clone()
	ref.DisableIndex = true
	want, wantErr := rankOracle(ref, tuple, known, ip, wl, m, topK)

	fold, legacy := db.Clone(), db.Clone()
	got, gotErr := fold.RankProblems(tuple, known, ip, wl, m, topK)
	legacyRanked, legacyErr := rankOracle(legacy, tuple, known, ip, wl, m, topK)

	for _, e := range []error{wantErr, legacyErr} {
		if (gotErr == nil) != (e == nil) || (gotErr != nil && gotErr.Error() != e.Error()) {
			t.Fatalf("%s: RankProblems err %v, reference err %v", tag, gotErr, e)
		}
	}
	if errors.Is(gotErr, ErrEmpty) != errors.Is(wantErr, ErrEmpty) {
		t.Fatalf("%s: ErrEmpty mismatch: %v vs %v", tag, gotErr, wantErr)
	}
	sameRanking(t, tag+" (vs linear reference)", got, want)
	sameRanking(t, tag+" (vs same-path reference)", got, legacyRanked)

	fe, fx := fold.ScanStats()
	le, lx := legacy.ScanStats()
	if fe != le || fx != lx {
		t.Fatalf("%s: ScanStats (%d, %d), reference (%d, %d)", tag, fe, fx, le, lx)
	}
	if fs, ls := fold.IndexStats(), legacy.IndexStats(); fs != ls {
		t.Fatalf("%s: IndexStats %+v, reference %+v", tag, fs, ls)
	}
}

// TestRankProblemsEquivalence pins the production ranking to the reference
// aggregation bit for bit over random databases with stale-length entries,
// several scopes and many equal-score entries per problem: all three
// measures, nil/random/all-false masks, all-zero queries, wildcard scopes,
// MinScore in {0, 0.3, 1} and topK in {0, 1, 3}.
func TestRankProblemsEquivalence(t *testing.T) {
	rng := stats.NewRNG(2400)
	const tupleLen = 90
	for _, minScore := range []float64{0, 0.3, 1} {
		for _, nEntries := range []int{0, 1, 30, 200} {
			db := buildRandomDB(rng.Fork(int64(nEntries)+int64(minScore*1000)), nEntries, tupleLen, minScore)
			addTies(rng, db, nEntries/2)
			for rep := 0; rep < 36; rep++ {
				density := []float64{0, 0.08, 0.3, 0.9}[rep%4]
				tuple := randomTuple(rng, tupleLen, density)
				var known []bool
				switch rep % 3 {
				case 1:
					known = []bool(randomTuple(rng, tupleLen, 0.8))
				case 2:
					known = make([]bool, tupleLen)
				}
				ip := []string{"", "10.0.0.1", "10.0.0.9", ""}[rep%4]
				wl := []string{"", "wc", "tpcds"}[rep%3]
				for _, m := range []Measure{Jaccard, Hamming, Cosine} {
					for _, topK := range []int{0, 1, 3} {
						tag := fmt.Sprintf("minScore=%v nEntries=%d rep=%d measure=%v topK=%d", minScore, nEntries, rep, m, topK)
						rankBothPaths(t, db, tuple, known, ip, wl, m, topK, tag)
					}
				}
			}
			// A mask of the wrong length is rejected by both paths alike.
			rankBothPaths(t, db, make(Tuple, tupleLen), make([]bool, 3), "", "", Jaccard, 0, "bad mask")
		}
	}
}

// TestRankProblemsTieRule: among a problem's equal best scores the earliest
// stored entry represents it, equal-scoring problems rank by name, and a
// problem scoring 0 stays in the list when MinScore is 0.
func TestRankProblemsTieRule(t *testing.T) {
	tup := func(s string) Tuple {
		tu, err := ParseTuple(s)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	var db DB
	db.Add(Entry{Tuple: tup("0001"), Problem: "zero", IP: "n", Workload: "w"})
	db.Add(Entry{Tuple: tup("1100"), Problem: "b", IP: "n", Workload: "w"})
	db.Add(Entry{Tuple: tup("1110"), Problem: "a", IP: "n", Workload: "w"})
	db.Add(Entry{Tuple: tup("1101"), Problem: "a", IP: "n", Workload: "w"})
	db.Add(Entry{Tuple: tup("1100"), Problem: "a", IP: "n", Workload: "w"})
	got, err := db.RankProblems(tup("1100"), nil, "n", "w", Jaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		problem, tuple string
		score          float64
	}{{"a", "1100", 1}, {"b", "1100", 1}, {"zero", "0001", 0}}
	if len(got) != len(want) {
		t.Fatalf("got %d causes %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		if got[i].Problem != w.problem || got[i].Tuple.String() != w.tuple || got[i].Score != w.score {
			t.Errorf("cause %d = %s %s %v, want %s %s %v", i, got[i].Problem, got[i].Tuple, got[i].Score, w.problem, w.tuple, w.score)
		}
	}
	// Against 1111, a's entries 1110 and 1101 tie at 3/4: the earlier one
	// represents the problem.
	got, err = db.RankProblems(tup("1111"), nil, "n", "w", Jaccard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Problem != "a" || got[0].Tuple.String() != "1110" || got[0].Score != 0.75 {
		t.Fatalf("top cause for 1111 = %+v, want problem a at 0.75 represented by 1110", got)
	}
}

// TestRankProblemsCausesDoNotAliasEntries: a caller mutating a ranked
// cause's tuple must not reach the stored signature (which SaveTo would
// then persist).
func TestRankProblemsCausesDoNotAliasEntries(t *testing.T) {
	rng := stats.NewRNG(2401)
	db := buildRandomDB(rng, 60, 40, 0)
	before := db.Entries()
	got, err := db.RankProblems(randomTuple(rng, 40, 0.3), nil, "", "", Jaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no causes ranked")
	}
	for _, c := range got {
		for i := range c.Tuple {
			c.Tuple[i] = !c.Tuple[i]
		}
	}
	if !reflect.DeepEqual(db.Entries(), before) {
		t.Fatal("mutating ranked causes changed the stored signatures")
	}
}

// TestRankProblemsAfterPruneAndClone: problem ids stay parallel to the
// entries when Prune rebuilds them without its near-duplicates and when a
// clone grows on its own, so both still rank exactly like the reference
// aggregation.
func TestRankProblemsAfterPruneAndClone(t *testing.T) {
	rng := stats.NewRNG(2402)
	var db DB
	for i := 0; i < 40; i++ {
		db.Add(Entry{Tuple: randomTuple(rng, 24, 0.3), Problem: fmt.Sprintf("p%d", i%5), IP: "n", Workload: "w"})
	}
	dup := db.Entries()[0]
	for i := 0; i < 3; i++ {
		db.Add(Entry{Tuple: dup.Tuple, Problem: "dup", IP: "n", Workload: "w"})
	}
	// Prune "dup" down to one copy, and thin out the others.
	if _, err := db.Prune(Jaccard, 0.2); err != nil {
		t.Fatal(err)
	}
	if len(db.probOf) != db.Len() {
		t.Fatalf("probOf has %d ids for %d entries", len(db.probOf), db.Len())
	}
	for i, e := range db.entries {
		if id, ok := db.probIDs[e.Problem]; !ok || id != db.probOf[i] {
			t.Fatalf("entry %d (%s): probOf %d, interned %d", i, e.Problem, db.probOf[i], id)
		}
	}
	clone := db.Clone()
	clone.Add(Entry{Tuple: randomTuple(rng, 24, 0.3), Problem: "fresh", IP: "n", Workload: "w"})
	for rep := 0; rep < 10; rep++ {
		q := randomTuple(rng, 24, 0.3)
		rankBothPaths(t, &db, q, nil, "n", "w", Jaccard, 0, fmt.Sprintf("pruned rep=%d", rep))
		rankBothPaths(t, clone, q, nil, "n", "w", Jaccard, 0, fmt.Sprintf("clone rep=%d", rep))
	}
	if len(db.probIDs) != 6 || len(clone.probIDs) != 7 {
		t.Fatalf("interned problems: db %v, clone %v", db.probIDs, clone.probIDs)
	}
}

// TestRankProblemsConcurrentReaders: RankProblems keeps all scratch per
// query, so concurrent readers of one database (the profile read lock
// admits many) each get the sequential answer.
func TestRankProblemsConcurrentReaders(t *testing.T) {
	rng := stats.NewRNG(2403)
	db := buildRandomDB(rng, 300, 64, 0)
	addTies(rng, db, 100)
	queries := make([]Tuple, 8)
	want := make([][]Match, len(queries))
	for i := range queries {
		queries[i] = randomTuple(rng, 64, 0.2)
		var err error
		if want[i], err = db.RankProblems(queries[i], nil, "", "wc", Jaccard, 3); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(queries)
				got, err := db.RankProblems(queries[i], nil, "", "wc", Jaccard, 3)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d query %d: got %+v (%v), want %+v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
