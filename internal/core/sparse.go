package core

import (
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// This file is the sparse diagnosis hot path: Violations/Diagnose cost
// proportional to the trained invariant edge set instead of the full M×M
// matrix. Per window it runs three tiers — a memoised report lookup (the
// window fingerprint, salted into the profile's assocCache), the prescreen
// lower bound over each trained pair (invariant.Prescreener), and the exact
// association only for the pairs the screen cannot certify. Verdicts are
// identical to a full association-matrix fill + Violations (the prescreen
// certificate is one-sided), which the equivalence tests keep as their
// oracle.

// WindowHint carries serving-layer reuse state into one diagnosis call.
// Both fields are optional; a nil hint (or zero value) makes DiagnoseHinted
// identical to Diagnose.
type WindowHint struct {
	// FP, with HasFP set, replaces the content fingerprint for the report
	// cache: a caller that knows when its window changed (e.g. a stream
	// hashing its identity and window generation) saves the O(m·n) hash of
	// the samples. The caller must guarantee FP changes whenever the window
	// content does, and never collides with another window of the same
	// profile.
	FP    uint64
	HasFP bool
	// Scorer, when non-nil, lazily supplies the pair scorer for the window —
	// typically built from incrementally maintained per-metric state
	// (mic.Slider) so the per-window sort/partition work is already paid.
	// It is only invoked on a report-cache miss. The scorer must compute
	// the same association measure as the profile's configuration over
	// exactly the window being diagnosed; returning nil falls back to the
	// configured batch or per-pair path.
	Scorer func() invariant.PairScorer
}

// SparseStats aggregates sparse-path edge telemetry: how trained pairs were
// resolved across all diagnoses (see invariant.EdgeStats for the tiers).
// Report-cache hits evaluate no pairs and advance nothing.
type SparseStats struct {
	Screened int64
	Exact    int64
	Skipped  int64
}

// violationsSparse computes the violation report over the trained edges
// only. The returned report may be shared with the profile's cache and
// other callers — strictly read-only.
func (p *Profile) violationsSparse(set *invariant.Set, tr *metrics.Trace, hint *WindowHint) (*ViolationReport, error) {
	var fp uint64
	haveFP := false
	// The cache key mixes the lifecycle epoch: a quarantine or promotion
	// bumps it, so reports cached before the verdict surface changed can no
	// longer be served. The salt is captured once — if this very window
	// changes the epoch, its report is cached under the old key and simply
	// never hit again, which is safe in both directions. Cache hits skip
	// health observation entirely: an identical window re-diagnosed adds no
	// information to the drift series.
	salt := reportSalt ^ p.lifecycleSalt()
	if p.cache != nil {
		if hint != nil && hint.HasFP {
			fp = hint.FP
		} else {
			fp = fingerprintWindow(tr.Rows, tr.Valid)
		}
		haveFP = true
		if e, ok := p.cache.get(fp ^ salt); ok && e.rep != nil && e.repSet == set {
			return e.rep, nil
		}
	}
	cfg := &p.sys.cfg
	var scorer invariant.PairScorer
	if hint != nil && hint.Scorer != nil {
		scorer = hint.Scorer()
	}
	if scorer == nil && cfg.BatchAssoc != nil {
		// Preparation errors (too few samples, non-finite values) drop the
		// batch tier, exactly as in the training fill.
		if sc, err := cfg.BatchAssoc(tr.Rows); err == nil {
			scorer = sc
		}
	}
	raw, known, st, err := set.ComputeEdgesMasked(tr.Rows, tr.Valid, cfg.Assoc, scorer, cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	if p.lc != nil {
		// Drift lifecycle: health over the raw verdicts, shadow
		// re-estimation from exact scores, quarantine masking. Shadow
		// candidates judge themselves on clean windows only (known nil) —
		// on a degraded window no whole-window score is valid, so those
		// windows observe health without re-estimating.
		var score func(k int) (float64, bool)
		if known == nil {
			pairs := set.SortedPairs()
			score = func(k int) (float64, bool) {
				pr := pairs[k]
				if scorer != nil {
					return scorer.Score(pr.I, pr.J), true
				}
				return cfg.Assoc(tr.Rows[pr.I], tr.Rows[pr.J]), true
			}
		}
		raw, known = p.lifecyclePost(set, raw, known, score)
	}
	rep := &ViolationReport{Tuple: signature.Tuple(raw), Coverage: 1, set: set}
	if known != nil {
		rep.Known = known
		checkable := 0
		for _, ok := range known {
			if ok {
				checkable++
			}
		}
		if len(known) > 0 {
			rep.Coverage = float64(checkable) / float64(len(known))
		}
	}
	for k, pr := range set.SortedPairs() {
		if raw[k] && (known == nil || known[k]) {
			rep.Violated = append(rep.Violated, pr)
		}
	}
	p.sparseScreened.Add(int64(st.Screened))
	p.sparseExact.Add(int64(st.Exact))
	p.sparseSkipped.Add(int64(st.Skipped))
	if haveFP {
		p.cache.put(fp^salt, cacheEntry{rep: rep, repSet: set})
	}
	return rep, nil
}

// SparseStats returns the profile's cumulative sparse-path edge counters.
func (p *Profile) SparseStats() SparseStats {
	return SparseStats{
		Screened: p.sparseScreened.Load(),
		Exact:    p.sparseExact.Load(),
		Skipped:  p.sparseSkipped.Load(),
	}
}
