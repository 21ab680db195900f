package experiments

import (
	"reflect"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/workload"
)

// denseOracle is the dense reference pipeline built from exported pieces:
// the full association-matrix fill (batch scorer when configured), then
// Violations over the context's invariant set, then the pair mask. It
// returns the tuple, the known flags (nil on a clean window) and the
// checkable fraction — the three things a core.ViolationReport must agree
// on.
func denseOracle(t *testing.T, sys *core.System, ctx core.Context, win *metrics.Trace) (tuple, known []bool, coverage float64) {
	t.Helper()
	cfg := sys.Config()
	set, err := sys.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var scorer invariant.PairScorer
	if cfg.BatchAssoc != nil {
		if sc, err := cfg.BatchAssoc(win.Rows); err == nil {
			scorer = sc
		}
	}
	mat, mask, err := invariant.ComputeMatrix(win.Rows, win.Valid, cfg.Assoc, scorer)
	if err != nil {
		t.Fatal(err)
	}
	tuple, err = set.Violations(mat, cfg.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	if mask == nil {
		return tuple, nil, 1
	}
	known = make([]bool, len(tuple))
	checkable := 0
	for k, p := range set.SortedPairs() {
		if known[k] = mask.OK(p.I, p.J); known[k] {
			checkable++
		} else {
			tuple[k] = false
		}
	}
	coverage = 1
	if len(known) > 0 {
		coverage = float64(checkable) / float64(len(known))
	}
	return tuple, known, coverage
}

// TestSparseCorpusEquivalence: across the simulator corpus — every batch
// fault kind injected into a wordcount run — the production sparse tiered
// diagnosis path must produce exactly the violation verdicts of the dense
// reference oracle, for the labelled signature windows and the probes
// alike. This is the end-to-end guarantee behind the prescreen: its
// certificate is one-sided, so no window in the corpus may flip a verdict.
func TestSparseCorpusEquivalence(t *testing.T) {
	opts := tinyOptions()
	r := NewRunner(opts)
	sys, _, err := r.TrainSystem(workload.Wordcount)
	if err != nil {
		t.Fatal(err)
	}

	check := func(kind faults.Kind, what string, ctx core.Context, win *metrics.Trace) *core.ViolationReport {
		rep, err := sys.Violations(ctx, win)
		if err != nil {
			t.Fatalf("%s %s: %v", kind, what, err)
		}
		tuple, known, coverage := denseOracle(t, sys, ctx, win)
		if !reflect.DeepEqual([]bool(rep.Tuple), tuple) || !reflect.DeepEqual(rep.Known, known) || rep.Coverage != coverage {
			t.Errorf("%s %s: sparse report (%v, %v, %v) diverged from oracle (%v, %v, %v)",
				kind, what, rep.Tuple, rep.Known, rep.Coverage, tuple, known, coverage)
		}
		return rep
	}
	for _, kind := range FaultKindsFor(workload.Wordcount) {
		res, err := r.Run(workload.Wordcount, kind, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		tr := res.TargetTrace()
		if tr == nil {
			t.Fatalf("%s: no target trace", kind)
		}
		win, err := AbnormalWindow(tr, opts.FaultStart, opts.FaultTicks)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ctx := core.Context{Workload: string(workload.Wordcount), IP: res.TargetIP}
		check(kind, "signature", ctx, win)
		if err := sys.BuildSignature(ctx, string(kind), win); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}

		probe, err := r.Run(workload.Wordcount, kind, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		pwin, err := AbnormalWindow(probe.TargetTrace(), opts.FaultStart, opts.FaultTicks)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		pctx := core.Context{Workload: string(workload.Wordcount), IP: probe.TargetIP}
		rep := check(kind, "probe", pctx, pwin)
		diag, err := sys.Diagnose(pctx, pwin)
		if err != nil {
			t.Fatalf("%s: diagnose: %v", kind, err)
		}
		if !reflect.DeepEqual(diag.Tuple, rep.Tuple) || !reflect.DeepEqual(diag.Known, rep.Known) || diag.Coverage != rep.Coverage {
			t.Errorf("%s: diagnosis verdicts diverged from the report", kind)
		}
	}

	if st := sys.SparseStats(); st.Screened+st.Exact == 0 {
		t.Error("sparse path evaluated no edges across the corpus")
	}
}
