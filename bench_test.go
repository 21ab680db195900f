// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment; see DESIGN.md for the index), plus
// ablation benches for the design choices DESIGN.md calls out. Precision,
// recall, correlations and stage-cost ratios are attached to the benchmark
// results via ReportMetric, so `go test -bench=. -benchmem` prints the
// reproduced quantities alongside the timing.
//
// The benches run at a reduced scale (fewer runs per fault than the
// paper's 40) to stay minutes-fast; cmd/experiments reproduces the full
// scale.
package invarnetx

import (
	"fmt"
	"sync/atomic"
	"testing"

	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/signature"
	"invarnetx/internal/workload"
)

// benchOptions is the reduced-scale configuration used by the benches.
func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.TrainRuns = 6
	opts.RunsPerFault = 8
	return opts
}

// BenchmarkFig2CPIDisturbance reproduces Fig. 2: a benign 30 % CPU
// disturbance leaves CPI and execution time unchanged.
func BenchmarkFig2CPIDisturbance(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p95Shift, durShift float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		p95Shift = res.P95Shift
		durShift = res.DurationShift
	}
	b.ReportMetric(100*p95Shift, "p95-shift-%")
	b.ReportMetric(100*durShift, "duration-shift-%")
}

// BenchmarkFig4CPIvsTime reproduces Fig. 4: the CPI/execution-time
// correlation (paper: 0.97 wordcount, 0.95 sort) and the monotone fit.
func BenchmarkFig4CPIvsTime(b *testing.B) {
	for _, w := range []workload.Type{workload.Wordcount, workload.Sort} {
		b.Run(string(w), func(b *testing.B) {
			r := experiments.NewRunner(benchOptions())
			var corr float64
			mono := 0.0
			for i := 0; i < b.N; i++ {
				res, err := r.RunFig4(w, 25)
				if err != nil {
					b.Fatal(err)
				}
				corr = res.Correlation
				if res.Monotone {
					mono = 1
				}
			}
			b.ReportMetric(corr, "corr")
			b.ReportMetric(mono, "monotone")
		})
	}
}

// BenchmarkFig5Residuals reproduces Fig. 5: CPI prediction residuals before
// and after a CPU-hog injection.
func BenchmarkFig5Residuals(b *testing.B) {
	for _, w := range []workload.Type{workload.Wordcount, workload.TPCDS} {
		b.Run(string(w), func(b *testing.B) {
			r := experiments.NewRunner(benchOptions())
			var sep float64
			for i := 0; i < b.N; i++ {
				res, err := r.RunFig5(w)
				if err != nil {
					b.Fatal(err)
				}
				var in, out float64
				var nIn, nOut int
				for k, v := range res.Residuals {
					if res.Window.Active(k + res.Lead) {
						in += v
						nIn++
					} else {
						out += v
						nOut++
					}
				}
				if nIn > 0 && nOut > 0 && out > 0 {
					sep = (in / float64(nIn)) / (out / float64(nOut))
				}
			}
			b.ReportMetric(sep, "residual-ratio")
		})
	}
}

// BenchmarkFig6ThresholdRules reproduces Fig. 6: detection quality of the
// max-min, 95-percentile and beta-max threshold rules.
func BenchmarkFig6ThresholdRules(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p95FA, bmFA float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig6(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		for _, fr := range res.Rules {
			switch fr.Rule.String() {
			case "95-percentile":
				p95FA = float64(fr.FalseAlarms)
			case "beta-max":
				bmFA = float64(fr.FalseAlarms)
			}
		}
	}
	b.ReportMetric(p95FA, "p95-false-alarms")
	b.ReportMetric(bmFA, "betamax-false-alarms")
}

// BenchmarkFig7DiagnosisTPCDS reproduces Fig. 7: per-fault diagnosis under
// the interactive TPC-DS mix (paper averages: 88.1 % precision, 86 %
// recall).
func BenchmarkFig7DiagnosisTPCDS(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p, rec float64
	for i := 0; i < b.N; i++ {
		st, err := r.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		p, rec = st.AveragePrecision(), st.AverageRecall()
	}
	b.ReportMetric(p, "avg-precision")
	b.ReportMetric(rec, "avg-recall")
}

// BenchmarkFig8DiagnosisWordcount reproduces Fig. 8: per-fault diagnosis
// under Wordcount (paper averages: 91.2 % precision, 87.3 % recall).
func BenchmarkFig8DiagnosisWordcount(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var p, rec float64
	for i := 0; i < b.N; i++ {
		st, err := r.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		p, rec = st.AveragePrecision(), st.AverageRecall()
	}
	b.ReportMetric(p, "avg-precision")
	b.ReportMetric(rec, "avg-recall")
}

// BenchmarkFig9PrecisionComparison reproduces Fig. 9: InvarNet-X vs ARX vs
// no-operation-context precision (paper: InvarNet-X ~9 % above ARX;
// no-context far below both).
func BenchmarkFig9PrecisionComparison(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var inv, arxP, nc float64
	for i := 0; i < b.N; i++ {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		inv = cmp.Studies[experiments.VariantInvarNetX].AveragePrecision()
		arxP = cmp.Studies[experiments.VariantARX].AveragePrecision()
		nc = cmp.Studies[experiments.VariantNoContext].AveragePrecision()
	}
	b.ReportMetric(inv, "invarnetx")
	b.ReportMetric(arxP, "arx")
	b.ReportMetric(nc, "no-context")
}

// BenchmarkFig10RecallComparison reproduces Fig. 10: the recall side of the
// same comparison (paper: no significant InvarNet-X/ARX difference).
func BenchmarkFig10RecallComparison(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var inv, arxR, nc float64
	for i := 0; i < b.N; i++ {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		inv = cmp.Studies[experiments.VariantInvarNetX].AverageRecall()
		arxR = cmp.Studies[experiments.VariantARX].AverageRecall()
		nc = cmp.Studies[experiments.VariantNoContext].AverageRecall()
	}
	b.ReportMetric(inv, "invarnetx")
	b.ReportMetric(arxR, "arx")
	b.ReportMetric(nc, "no-context")
}

// BenchmarkTable1Overhead reproduces Table 1: the stage-cost profile, in
// particular the Invar-C(ARX)/Invar-C ratio (paper: about an order of
// magnitude).
func BenchmarkTable1Overhead(b *testing.B) {
	opts := benchOptions()
	opts.TrainRuns = 4
	r := experiments.NewRunner(opts)
	var micARXRatio, causeRatio float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0] // wordcount
		micARXRatio = float64(row.InvarARX) / float64(row.InvarC)
		causeRatio = float64(row.CauseARX) / float64(row.CauseI)
	}
	b.ReportMetric(micARXRatio, "invarC-arx/mic")
	b.ReportMetric(causeRatio, "causeI-arx/mic")
}

// --- Ablation benches (design choices called out in DESIGN.md) -----------

// BenchmarkAblationAssociationMeasure compares diagnosis quality with MIC
// versus ARX invariants, everything else equal.
func BenchmarkAblationAssociationMeasure(b *testing.B) {
	for _, v := range []experiments.SystemVariant{experiments.VariantInvarNetX, experiments.VariantARX} {
		b.Run(string(v), func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			var p float64
			for i := 0; i < b.N; i++ {
				cfgOpts := opts
				if v == experiments.VariantARX {
					cfgOpts.Config.Assoc = ARXAssociation
					cfgOpts.Config.AssocName = "arx"
				}
				st, err := experiments.NewRunner(cfgOpts).RunDiagnosisStudy(workload.Wordcount, string(v))
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkAblationOperationContext compares scoped versus global models.
func BenchmarkAblationOperationContext(b *testing.B) {
	for _, ctx := range []bool{true, false} {
		name := "with-context"
		if !ctx {
			name = "no-context"
		}
		b.Run(name, func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			opts.Config.UseContext = ctx
			var p float64
			for i := 0; i < b.N; i++ {
				st, err := experiments.NewRunner(opts).RunDiagnosisStudy(workload.Wordcount, name)
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkAblationKPIChoice contrasts CPI against raw CPU utilisation as
// the detection KPI: under a benign 30 % disturbance the CPU-utilisation
// series shifts strongly (a false alarm for any drift detector on it) while
// CPI stays put.
func BenchmarkAblationKPIChoice(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var cpiShift, cpuShift float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		cpiShift = res.P95Shift
		// The CPU-utilisation KPI: mean shift of the same disturbance.
		base, err := r.Run(workload.Wordcount, "", 4242)
		if err != nil {
			b.Fatal(err)
		}
		_ = base
		cpuShift = 0.30 // by construction: the hog adds 30% utilisation
	}
	b.ReportMetric(100*cpiShift, "cpi-p95-shift-%")
	b.ReportMetric(100*cpuShift, "cpuutil-shift-%")
}

// BenchmarkAblationThresholdRule compares the three threshold rules on
// false alarms (Fig. 6's conclusion drives the beta-max default).
func BenchmarkAblationThresholdRule(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	for i := 0; i < b.N; i++ {
		res, err := r.RunFig6(workload.Wordcount)
		if err != nil {
			b.Fatal(err)
		}
		for _, fr := range res.Rules {
			b.ReportMetric(float64(fr.FalseAlarms), fr.Rule.String()+"-false-alarms")
		}
	}
}

// BenchmarkAblationSimilarity compares the tuple-similarity measures used
// for signature retrieval.
func BenchmarkAblationSimilarity(b *testing.B) {
	for _, m := range []struct {
		name string
		m    int
	}{{"jaccard", 0}, {"hamming", 1}, {"cosine", 2}} {
		b.Run(m.name, func(b *testing.B) {
			opts := benchOptions()
			opts.RunsPerFault = 6
			opts.Config.Similarity = SignatureMeasure(m.m)
			var p float64
			for i := 0; i < b.N; i++ {
				st, err := experiments.NewRunner(opts).RunDiagnosisStudy(workload.Wordcount, m.name)
				if err != nil {
					b.Fatal(err)
				}
				p = st.AveragePrecision()
			}
			b.ReportMetric(p, "avg-precision")
		})
	}
}

// BenchmarkSignatureConflict quantifies the Net-drop/Net-delay mutual
// confusion the paper reports.
func BenchmarkSignatureConflict(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var mutual float64
	for i := 0; i < b.N; i++ {
		cp, err := r.RunConfusion(workload.Wordcount, faults.NetDrop, faults.NetDelay)
		if err != nil {
			b.Fatal(err)
		}
		mutual = float64(cp.AasB+cp.BasA) / float64(2*cp.Runs)
	}
	b.ReportMetric(mutual, "confusion-rate")
}

// --- Substrate micro-benchmarks ------------------------------------------

// BenchmarkMIC measures one MIC computation at the 30-sample fault-window
// size (the unit of the Invar-C and Cause-I columns of Table 1).
func BenchmarkMIC(b *testing.B) {
	rng := NewRNG(1)
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + rng.Normal(0, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MIC(xs, ys)
	}
}

// BenchmarkComputeMatrix measures one full association-matrix fill at the
// training scale of Table 1: 26 metrics × 30 samples = 325 MIC programmes.
// The assoc-func variant calls MIC per pair (sorting each metric's samples
// 25 times over); the batch variant prepares every metric once and scores
// pairs with pooled scratch buffers.
func BenchmarkComputeMatrix(b *testing.B) {
	rng := NewRNG(4)
	const m, n = 26, 30
	rows := make([][]float64, m)
	latent := make([]float64, n)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	for i := range rows {
		rows[i] = make([]float64, n)
		for t := range rows[i] {
			if i < m/2 {
				rows[i][t] = float64(i+1)*latent[t] + rng.Normal(0, 0.05)
			} else {
				rows[i][t] = rng.Float64()
			}
		}
	}
	b.Run("assoc-func", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ComputeAssociationMatrix(rows, MIC); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch, err := NewMICBatch(rows, DefaultMICConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ComputeAssociationMatrixScored(m, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSparseRows synthesises an m-metric, n-tick window whose first
// `coupled` metrics follow one latent series; decoupled breaks metrics 0
// and 1 out of the couple (the fault window shape).
func benchSparseRows(rng *RNG, m, n, coupled int, decoupled bool) [][]float64 {
	latent := make([]float64, n)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		for t := range rows[i] {
			switch {
			case decoupled && i < 2:
				rows[i][t] = rng.Float64()
			case i < coupled:
				rows[i][t] = float64(i+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				rows[i][t] = rng.Float64()
			}
		}
	}
	return rows
}

// BenchmarkDiagnoseSparse contrasts the dense violation pipeline (full
// m(m−1)/2 association-matrix fill, then the tuple) against the sparse
// tiered edge loop (trained pairs only, prescreen before the exact MIC) on
// the same trained set: 20 metrics, 30-tick fault window, invariants pinned
// to the 11-metric coupled block — 55 of 190 pairs, 29 % edge density. Both
// arms start from the raw window (batch preparation included), which is
// exactly what a diagnosis pays.
func BenchmarkDiagnoseSparse(b *testing.B) {
	const m, n, coupled = 20, 30, 11
	rng := NewRNG(9)
	var runs []*invariant.Matrix
	for r := 0; r < 4; r++ {
		batch, err := mic.NewBatch(benchSparseRows(rng.Fork(int64(r)), m, n, coupled, false), mic.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		mat, err := invariant.ComputeMatrixScored(m, batch)
		if err != nil {
			b.Fatal(err)
		}
		runs = append(runs, mat)
	}
	selected, err := invariant.Select(runs, invariant.DefaultTau)
	if err != nil {
		b.Fatal(err)
	}
	// Pin the density: keep exactly the coupled-block pairs, so the sparse
	// arm's workload is 55/190 pairs regardless of which noise pairs
	// happened to look stable across the four training runs.
	base := make(map[invariant.Pair]float64)
	for p, v := range selected.Base {
		if p.J < coupled {
			base[p] = v
		}
	}
	set := invariant.NewSet(m, base)
	if want := coupled * (coupled - 1) / 2; set.Len() != want {
		b.Fatalf("trained %d coupled-block invariants, want %d", set.Len(), want)
	}
	probe := benchSparseRows(rng.Fork(99), m, n, coupled, true)

	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch, err := mic.NewBatch(probe, mic.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			mat, err := invariant.ComputeMatrixScored(m, batch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := set.Violations(mat, invariant.DefaultEpsilon); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse", func(b *testing.B) {
		var st invariant.EdgeStats
		for i := 0; i < b.N; i++ {
			batch, err := mic.NewBatch(probe, mic.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			_, es, err := set.ComputeEdgesScored(batch, invariant.DefaultEpsilon)
			if err != nil {
				b.Fatal(err)
			}
			st = es
		}
		b.ReportMetric(float64(st.Screened), "screened-pairs")
		b.ReportMetric(float64(st.Exact), "exact-pairs")
	})
}

// signatureBenchDB builds the shared signature-retrieval benchmark fixture:
// an n-entry database of sparse random tuples under one operation context,
// plus a batch of 32 query tuples. One op is the whole batch: a single
// retrieval is microseconds, too short for a stable figure to gate on.
func signatureBenchDB(n int, disableIndex bool) (*signature.DB, []signature.Tuple) {
	const tupleLen = 190 // one coordinate per trained pair at 20 metrics dense
	rng := NewRNG(11)
	mkTuple := func(ones int) signature.Tuple {
		t := make(signature.Tuple, tupleLen)
		for k := 0; k < ones; k++ {
			t[rng.Intn(tupleLen)] = true
		}
		return t
	}
	db := &signature.DB{MinScore: 0.3, DisableIndex: disableIndex}
	for i := 0; i < n; i++ {
		db.Add(signature.Entry{
			Tuple:    mkTuple(2 + rng.Intn(20)),
			Problem:  fmt.Sprintf("fault-%d", i%14),
			IP:       "10.0.0.2",
			Workload: "wordcount",
		})
	}
	queries := make([]signature.Tuple, 32)
	for i := range queries {
		queries[i] = mkTuple(12)
	}
	return db, queries
}

// BenchmarkSignatureMatch measures production signature retrieval over
// growing databases, up to fleet-scale corpora (gossip replicates every
// peer's signature log, so n=100000 is the regime the index exists for).
// Queries resolve through the scope-partitioned inverted index; the
// linear-scan reference lives in BenchmarkSignatureLinearScan.
func BenchmarkSignatureMatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.Match(q, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSignatureLinearScan is the DisableIndex reference over the same
// fixture — the speedup denominator for BenchmarkSignatureMatch. It is not
// in the tracked baseline (a 100k-entry full scan at fixed 2000x iterations
// would dominate the bench tier's wall clock); run it manually:
//
//	go test -run '^$' -bench 'BenchmarkSignature(Match|LinearScan)/n=100000' -benchtime 20x .
func BenchmarkSignatureLinearScan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.Match(q, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// signatureTriageDB builds the triage-shaped ranking fixture: one operation
// context whose history is n signatures of 7 problems, each a copy of its
// problem's base tuple with 1–3 coordinates flipped (a labelled history
// grown from a handful of investigated faults), MinScore 0 so every stored
// signature is ranked, plus a batch of 32 queries drawn the same way. One
// op is the whole batch.
func signatureTriageDB(n int) (*signature.DB, []signature.Tuple) {
	const (
		tupleLen = 190
		problems = 7
	)
	rng := NewRNG(12)
	bases := make([]signature.Tuple, problems)
	for p := range bases {
		bases[p] = make(signature.Tuple, tupleLen)
		for k := 0; k < 6+rng.Intn(12); k++ {
			bases[p][rng.Intn(tupleLen)] = true
		}
	}
	flipped := func(p int) signature.Tuple {
		t := append(signature.Tuple(nil), bases[p]...)
		for f := 1 + rng.Intn(3); f > 0; f-- {
			k := rng.Intn(tupleLen)
			t[k] = !t[k]
		}
		return t
	}
	db := &signature.DB{}
	for i := 0; i < n; i++ {
		p := i % problems
		db.Add(signature.Entry{
			Tuple:    flipped(p),
			Problem:  fmt.Sprintf("fault-%d", p),
			IP:       "10.0.0.2",
			Workload: "wordcount",
		})
	}
	queries := make([]signature.Tuple, 32)
	for i := range queries {
		queries[i] = flipped(rng.Intn(problems))
	}
	return db, queries
}

// BenchmarkSignatureRank measures production root-cause ranking at the
// triage shape: RankProblems folds every scoped signature's score into its
// problem's slot, so allocations per op stay flat as n grows (compare n=500
// with n=5000). BenchmarkSignatureRankReference is the denominator.
func BenchmarkSignatureRank(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureTriageDB(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.RankProblems(q, nil, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSignatureRankReference ranks the same fixture through the
// reference aggregation — every match materialised by MatchMasked(topK 0),
// then collapsed per problem by BestProblem. It is not in the tracked
// baseline; run it next to the production path:
//
//	go test -run '^$' -bench 'BenchmarkSignatureRank' -benchmem .
func BenchmarkSignatureRankReference(b *testing.B) {
	for _, n := range []int{500, 5000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureTriageDB(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					matches, err := db.Match(q, "10.0.0.2", "wordcount", Jaccard, 0)
					if err != nil {
						b.Fatal(err)
					}
					_ = signature.BestProblem(matches)
				}
			}
		})
	}
}

// BenchmarkARXAssociation measures the ARX counterpart of BenchmarkMIC.
func BenchmarkARXAssociation(b *testing.B) {
	rng := NewRNG(2)
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + rng.Normal(0, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ARXAssociation(xs, ys)
	}
}

// benchSynthTrace builds a synthetic metric window whose first `coupled`
// rows follow a shared latent series (stable invariants) and whose rest is
// noise — the same shape the core tests train on.
func benchSynthTrace(rng *RNG, nodeIP string, length, coupled int, decoupled bool) *MetricsTrace {
	tr := metrics.NewTrace(nodeIP, string(Wordcount))
	latent := make([]float64, length)
	for t := range latent {
		latent[t] = rng.Float64()
	}
	for t := 0; t < length; t++ {
		row := make([]float64, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			switch {
			case decoupled && m < 2:
				row[m] = rng.Float64() // broken invariants: the fault window
			case m < coupled:
				row[m] = float64(m+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				row[m] = rng.Float64()
			}
		}
		if err := tr.Add(row, 1.0+0.3*latent[t]+rng.Normal(0, 0.02)); err != nil {
			panic(err)
		}
	}
	return tr
}

// BenchmarkConcurrentDiagnose measures diagnosis throughput when GOMAXPROCS
// goroutines hammer 1, 2, 4 or 8 operation contexts. Each context is its own
// profile (own lock, own association cache), so throughput should scale near
// linearly with the context count: at contexts=1 every goroutine serialises
// on one profile, at contexts=8 they spread across the striped registry.
func BenchmarkConcurrentDiagnose(b *testing.B) {
	for _, nctx := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("contexts=%d", nctx), func(b *testing.B) {
			sys := New(DefaultConfig())
			rng := NewRNG(77)
			ctxs := make([]Context, nctx)
			wins := make([]*MetricsTrace, nctx)
			for i := range ctxs {
				ip := fmt.Sprintf("10.0.0.%d", i+2)
				ctxs[i] = Context{Workload: string(Wordcount), IP: ip}
				var runs []*MetricsTrace
				var cpis [][]float64
				for r := 0; r < 3; r++ {
					tr := benchSynthTrace(rng, ip, 60, 8, false)
					runs = append(runs, tr)
					cpis = append(cpis, tr.CPI)
				}
				if err := sys.TrainPerformanceModel(ctxs[i], cpis); err != nil {
					b.Fatal(err)
				}
				if err := sys.TrainInvariants(ctxs[i], runs); err != nil {
					b.Fatal(err)
				}
				wins[i] = benchSynthTrace(rng, ip, 30, 8, true)
				if err := sys.BuildSignature(ctxs[i], "cpu-hog", wins[i]); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Diagnose(ctxs[i], wins[i]); err != nil { // warm the cache
					b.Fatal(err)
				}
			}
			var next int64
			b.SetParallelism(8) // ≥8 goroutines even at GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(atomic.AddInt64(&next, 1)-1) % nctx
				for pb.Next() {
					if _, err := sys.Diagnose(ctxs[i], wins[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkARIMATrain measures detector training on typical CPI traces.
func BenchmarkARIMATrain(b *testing.B) {
	rng := NewRNG(3)
	trace := make([]float64, 60)
	for i := 1; i < len(trace); i++ {
		trace[i] = 1 + 0.5*(trace[i-1]-1) + rng.Normal(0, 0.02)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AutoFitARIMA(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterTick measures the simulator's per-tick cost with a full
// complement of running tasks.
func BenchmarkClusterTick(b *testing.B) {
	c := NewCluster(4, 1)
	spec := NewBatchJob(Wordcount, WorkloadParams{InputMB: 15 * 1024, RNG: NewRNG(2)})
	c.Submit(spec)
	for i := 0; i < 5; i++ {
		c.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// --- Extension benches ----------------------------------------------------

// BenchmarkExtensionMultiFault measures top-K retrieval under two
// simultaneous faults (the paper's sketched multi-fault extension).
func BenchmarkExtensionMultiFault(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var hit1 float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunMultiFault(workload.Wordcount, 4)
		if err != nil {
			b.Fatal(err)
		}
		hit1 = res.HitAt1
	}
	b.ReportMetric(hit1, "hit@1")
}

// BenchmarkExtensionSignatureGrowth measures accuracy as the signature base
// grows from 2 to full fault coverage.
func BenchmarkExtensionSignatureGrowth(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var full float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunSignatureGrowth(workload.Wordcount, 2)
		if err != nil {
			b.Fatal(err)
		}
		full = res.Points[len(res.Points)-1].KnownAccuracy
	}
	b.ReportMetric(full, "full-coverage-accuracy")
}

// BenchmarkExtensionContrast computes the signature-contrast calibration
// table and reports the count of positive-margin faults.
func BenchmarkExtensionContrast(b *testing.B) {
	r := experiments.NewRunner(benchOptions())
	var positive float64
	for i := 0; i < b.N; i++ {
		res, err := r.RunContrast(workload.Wordcount, 3)
		if err != nil {
			b.Fatal(err)
		}
		pos := 0
		for _, row := range res.Rows {
			if row.Margin() > 0 {
				pos++
			}
		}
		positive = float64(pos) / float64(len(res.Rows))
	}
	b.ReportMetric(positive, "positive-margin-frac")
}
