package core

import (
	"math"
	"reflect"
	"testing"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// maskTicks rebuilds a trace with a random fraction of samples invalidated
// (stored as NaN with the validity flag cleared), plus one full-outage
// metric — the degraded-telemetry shapes the sparse path must reproduce.
func maskTicks(rng *stats.RNG, tr *metrics.Trace, drop float64, outage int) *metrics.Trace {
	out := metrics.NewTrace(tr.NodeIP, tr.Context)
	for t := 0; t < tr.Len(); t++ {
		sample := make([]float64, metrics.Count)
		valid := make([]bool, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			sample[m] = tr.Rows[m][t]
			valid[m] = rng.Float64() >= drop && m != outage
			if !valid[m] {
				sample[m] = math.NaN()
			}
		}
		if err := out.AddMasked(sample, valid, tr.CPI[t], true); err != nil {
			panic(err)
		}
	}
	return out
}

// denseReport is the dense reference pipeline, kept as the oracle of the
// sparse diagnosis path: the full association-matrix fill (batch scorer
// when configured, as in training), Violations over the set, then the pair
// mask — unknown pairs read neither holding nor violated, and a clean
// window is the all-known case (nil Known, Coverage 1).
func denseReport(p *Profile, set *invariant.Set, tr *metrics.Trace) (*ViolationReport, error) {
	cfg := p.sys.cfg
	var scorer invariant.PairScorer
	if cfg.BatchAssoc != nil {
		if sc, err := cfg.BatchAssoc(tr.Rows); err == nil {
			scorer = sc
		}
	}
	mat, mask, err := invariant.ComputeMatrix(tr.Rows, tr.Valid, cfg.Assoc, scorer)
	if err != nil {
		return nil, err
	}
	raw, err := set.Violations(mat, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	rep := &ViolationReport{Tuple: signature.Tuple(raw), Coverage: 1, set: set}
	pairs := set.SortedPairs()
	if mask != nil {
		rep.Known = make([]bool, len(raw))
		checkable := 0
		for k, pr := range pairs {
			if rep.Known[k] = mask.OK(pr.I, pr.J); rep.Known[k] {
				checkable++
			} else {
				raw[k] = false
			}
		}
		if len(raw) > 0 {
			rep.Coverage = float64(checkable) / float64(len(raw))
		}
	}
	for k, pr := range pairs {
		if raw[k] {
			rep.Violated = append(rep.Violated, pr)
		}
	}
	return rep, nil
}

// TestSparseMatchesExactProperty: over random clean, faulted and degraded
// windows, the production sparse tiered path must produce byte-identical
// violation reports and diagnoses (tuple, known flags, coverage, causes,
// confidence) to the dense reference oracle, whose report is ranked through
// the same signature database.
func TestSparseMatchesExactProperty(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	sp := trainSystem(t, DefaultConfig(), ctx, 900)
	p := sp.Profile(ctx)
	set, err := sp.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(901)
	// Seed signatures through the production pipeline: every stored tuple
	// must already match the oracle's.
	for i, prob := range []string{"cpu-hog", "mem-hog", "disk-hog"} {
		abn := synthTrace(rng.Fork(int64(50+i)), 30, 8, map[int]bool{i: true, i + 1: true})
		entry, _, err := sp.BuildSignatureEntry(ctx, prob, abn)
		if err != nil {
			t.Fatal(err)
		}
		want, err := denseReport(p, set, abn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(entry.Tuple, want.Tuple) {
			t.Errorf("%s: stored signature %v != oracle tuple %v", prob, entry.Tuple, want.Tuple)
		}
	}

	for rep := 0; rep < 24; rep++ {
		sub := rng.Fork(int64(rep))
		decouple := map[int]bool{}
		if rep%3 != 0 {
			decouple[sub.Intn(8)] = true
			decouple[sub.Intn(8)] = true
		}
		tr := synthTrace(sub, 30, 8, decouple)
		switch rep % 4 {
		case 1:
			tr = maskTicks(sub, tr, 0.1, rep%metrics.Count)
		case 2:
			// A NaN slipping past a nil mask must degrade both paths alike.
			tr.Rows[rep%metrics.Count][5] = math.NaN()
		}
		vSp, errSp := sp.Violations(ctx, tr)
		vEx, errEx := denseReport(p, set, tr)
		if (errSp == nil) != (errEx == nil) {
			t.Fatalf("rep %d: sparse err %v, exact err %v", rep, errSp, errEx)
		}
		if errSp != nil {
			continue
		}
		if !reflect.DeepEqual(vSp, vEx) {
			t.Errorf("rep %d: sparse report %+v != exact %+v", rep, vSp, vEx)
		}
		dSp, err := sp.Diagnose(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		dEx, err := p.diagnoseReport(ctx, vEx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dSp, dEx) {
			t.Errorf("rep %d: sparse diagnosis %+v != exact %+v", rep, dSp, dEx)
		}
	}

	if st := sp.SparseStats(); st.Screened == 0 {
		t.Error("prescreen never certified a pair across the property windows")
	}
	if entries, _ := sp.SignatureScanStats(); entries == 0 {
		t.Error("signature scan counters never advanced")
	}
}

// TestSparseReportCacheReuse: diagnosing the same window twice must return
// the memoised report, and retraining (a new invariant set pointer) must
// invalidate it even though the fingerprint is unchanged.
func TestSparseReportCacheReuse(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 910)
	tr := synthTrace(stats.NewRNG(911), 30, 8, map[int]bool{2: true})
	before := s.AssocCacheStats()
	v1, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("second diagnosis of an identical window did not return the cached report")
	}
	after := s.AssocCacheStats()
	if after.Hits != before.Hits+1 {
		t.Errorf("cache hits %d -> %d, want one new hit", before.Hits, after.Hits)
	}

	// Retrain on the same windows: the pool dedupes, so the selected pairs
	// are unchanged, but the set pointer is fresh and the cached report must
	// not be served for it.
	prof := s.Profile(ctx)
	if err := prof.TrainInvariants(nil); err != nil {
		t.Fatal(err)
	}
	v3, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Error("report cached under the old invariant set survived retraining")
	}
	if !reflect.DeepEqual(v3, v1) {
		t.Errorf("recomputed report %+v differs from original %+v", v3, v1)
	}
}

// TestDiagnoseHintedFingerprint: a caller-supplied fingerprint must key the
// report cache (skipping both the content hash and the scorer on a hit), and
// a changed fingerprint must yield the same diagnosis the unhinted path
// computes for the new window.
func TestDiagnoseHintedFingerprint(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 920)
	rng := stats.NewRNG(921)
	tr1 := synthTrace(rng.Fork(1), 30, 8, map[int]bool{1: true})
	tr2 := synthTrace(rng.Fork(2), 30, 8, nil)

	d1, err := s.DiagnoseHinted(ctx, tr1, &WindowHint{FP: 42, HasFP: true})
	if err != nil {
		t.Fatal(err)
	}
	scorerCalled := false
	d2, err := s.DiagnoseHinted(ctx, tr1, &WindowHint{FP: 42, HasFP: true, Scorer: func() invariant.PairScorer {
		scorerCalled = true
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if scorerCalled {
		t.Error("report-cache hit still built the hint scorer")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("hinted rediagnosis %+v != original %+v", d2, d1)
	}

	d3, err := s.DiagnoseHinted(ctx, tr2, &WindowHint{FP: 43, HasFP: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Diagnose(ctx, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d3, want) {
		t.Errorf("hinted diagnosis %+v != unhinted %+v", d3, want)
	}
}
