package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// Profile is the self-contained diagnosis state of one operation context:
// its trained CPI detector, invariant set, signature entries, training
// pools and association-matrix cache, plus the registry of live monitors
// watching jobs under this context. Each profile synchronises itself, so
// training or diagnosing one context never contends with another; the
// no-context ablation is simply the degenerate deployment with a single
// global profile (key Context{}), not a separate code path.
//
// A Profile is obtained from System.Profile (created on first use) and
// stays valid for the lifetime of the System.
type Profile struct {
	sys *System
	key Context

	cache *assocCache // per-profile; nil when caching is disabled

	mu         sync.RWMutex
	detector   *detect.Detector
	invariants *invariant.Set
	sigs       signature.DB
	cpiPool    trainingPool[[]float64]
	windowPool trainingPool[*metrics.Trace]

	monitors *detect.Registry

	// lc is the drift-aware invariant lifecycle (nil when disabled): edge
	// health, quarantine and shadow generations. See lifecycle.go.
	lc *lifecycle

	// cross marks spatio-temporal profiles (context IP of the form
	// "nodeA~nodeB#stage"): their windows are joint two-node traces, only
	// node-spanning pairs survive selection, and pair names carry the node
	// each metric lives on. Nil for ordinary intra-node profiles.
	cross *crossScope

	// Sparse-path edge telemetry (see SparseStats): how trained pairs were
	// resolved across every sparse diagnosis of this profile.
	sparseScreened atomic.Int64
	sparseExact    atomic.Int64
	sparseSkipped  atomic.Int64
}

// newProfile builds an empty profile for key under s's configuration.
func newProfile(s *System, key Context) *Profile {
	p := &Profile{
		sys:        s,
		key:        key,
		cache:      newAssocCache(s.cfg.AssocCacheSize),
		cpiPool:    newTrainingPool[[]float64](s.cfg.PoolCap),
		windowPool: newTrainingPool[*metrics.Trace](s.cfg.PoolCap),
		monitors:   detect.NewRegistry(),
	}
	p.sigs.MinScore = s.cfg.SigMinScore
	if s.cfg.Lifecycle.Enabled {
		p.lc = newLifecycle(s.cfg.Lifecycle)
	}
	if ck, ok := ParseCrossContext(key); ok {
		p.cross = &crossScope{key: ck, k: len(CrossMetricIdx)}
	}
	return p
}

// Context returns the profile's operation context (the zero Context for the
// global no-context profile).
func (p *Profile) Context() Context { return p.key }

// Monitors returns the registry of live monitors attached to this profile
// (populated by supervised monitor jobs; see SuperviseMonitor).
func (p *Profile) Monitors() *detect.Registry { return p.monitors }

// TrainPerformanceModel fits the ARIMA CPI model and thresholds from the
// CPI traces of N normal runs. Traces pool with (deduplicated against)
// everything trained before, and the model is refit on the whole pool.
func (p *Profile) TrainPerformanceModel(cpiTraces [][]float64) error {
	return p.trainPerformanceModel(p.key, cpiTraces)
}

// trainPerformanceModel is TrainPerformanceModel with the context used in
// error messages made explicit: System-level calls report the caller's
// context even when it maps onto the global no-context profile.
func (p *Profile) trainPerformanceModel(errCtx Context, cpiTraces [][]float64) error {
	p.mu.Lock()
	for _, tr := range cpiTraces {
		p.cpiPool.add(fingerprintRows([][]float64{tr}), tr)
	}
	pool := p.cpiPool.snapshot()
	p.mu.Unlock()
	d, err := detect.Train(pool, p.sys.cfg.Detect)
	if err != nil {
		return fmt.Errorf("core: training performance model for %v: %w", errCtx, err)
	}
	p.mu.Lock()
	p.detector = d
	p.mu.Unlock()
	return nil
}

// TrainInvariants runs Algorithm 1 over the metric traces of N normal
// runs. Runs pool with (deduplicated against) everything trained before:
// Algorithm 1's stability test then only keeps pairs whose association
// holds on *every* pooled window — which is exactly how the global
// no-context profile loses most of its invariants on a heterogeneous
// platform.
func (p *Profile) TrainInvariants(runs []*metrics.Trace) error {
	return p.trainInvariants(p.key, runs)
}

func (p *Profile) trainInvariants(errCtx Context, runs []*metrics.Trace) error {
	p.mu.Lock()
	for _, run := range runs {
		p.windowPool.add(fingerprintWindow(run.Rows, run.Valid), run)
	}
	pool := p.windowPool.snapshot()
	p.mu.Unlock()
	// The whole pool is recomputed on every call; the association cache
	// turns all but the newly added windows into lookups.
	mats := make([]*invariant.Matrix, 0, len(pool))
	for _, run := range pool {
		m, _, err := p.analyze(run)
		if err != nil {
			return fmt.Errorf("core: association matrix for %v: %w", errCtx, err)
		}
		mats = append(mats, m)
	}
	set, err := invariant.Select(mats, p.sys.cfg.Tau)
	if err != nil {
		return fmt.Errorf("core: invariant selection for %v: %w", errCtx, err)
	}
	if p.cross != nil {
		// Cross profiles keep only the edges that span the two nodes:
		// within-node pairs of the joint space duplicate the intra-node
		// profiles' work and would dilute cross signatures with tuples the
		// single-node layer already owns.
		set = filterCrossPairs(set, p.cross.k)
	}
	p.mu.Lock()
	p.invariants = set
	p.mu.Unlock()
	if p.lc != nil {
		p.lc.install(set)
	}
	return nil
}

// Detector returns the trained CPI detector.
func (p *Profile) Detector() (*detect.Detector, error) { return p.detectorFor(p.key) }

func (p *Profile) detectorFor(errCtx Context) (*detect.Detector, error) {
	p.mu.RLock()
	d := p.detector
	p.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoModel, errCtx)
	}
	return d, nil
}

// Invariants returns the trained invariant set.
func (p *Profile) Invariants() (*invariant.Set, error) { return p.invariantsFor(p.key) }

func (p *Profile) invariantsFor(errCtx Context) (*invariant.Set, error) {
	p.mu.RLock()
	set := p.invariants
	p.mu.RUnlock()
	if set == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoInvariants, errCtx)
	}
	return set, nil
}

// NewMonitor starts online anomaly detection for a job running under this
// profile, seeded with the first CPI samples of the run.
func (p *Profile) NewMonitor(warmup []float64) (*detect.Monitor, error) {
	return p.newMonitorFor(p.key, warmup)
}

func (p *Profile) newMonitorFor(errCtx Context, warmup []float64) (*detect.Monitor, error) {
	d, err := p.detectorFor(errCtx)
	if err != nil {
		return nil, err
	}
	return d.NewMonitor(warmup), nil
}

// ViolationReport is the outcome of the masked-first violation analysis of
// one abnormal window — the single pipeline behind BuildSignature and
// Diagnose. A clean window is simply the all-known case: Known is nil and
// Coverage is 1.
type ViolationReport struct {
	// Tuple is the binary violation tuple over the profile's sorted
	// invariant pairs; unknown coordinates are false (neither holding nor
	// violated).
	Tuple signature.Tuple
	// Known flags which invariants were checkable in the window. Nil means
	// the telemetry was clean and every invariant was checkable.
	Known []bool
	// Violated lists the known violated pairs — the hints InvarNet-X
	// reports for unknown problems.
	Violated []invariant.Pair
	// Coverage is the checkable fraction of invariants (1 on a clean
	// window) — defined here and nowhere else.
	Coverage float64

	// set is the invariant set the report was computed against. Carrying
	// it keeps every consumer of the report — Unknown naming, signature
	// matching — on the *same* model generation even when a concurrent
	// retrain or shadow promotion swaps the profile's live set
	// mid-diagnosis.
	set *invariant.Set
}

// Violations computes the violation report of an abnormal metric window
// against the profile's invariants. Missing or masked samples make the
// touched invariants *unknown* rather than violated.
func (p *Profile) Violations(abnormal *metrics.Trace) (*ViolationReport, error) {
	return p.violations(p.key, abnormal)
}

func (p *Profile) violations(errCtx Context, abnormal *metrics.Trace) (*ViolationReport, error) {
	return p.violationsHinted(errCtx, abnormal, nil)
}

// violationsHinted dispatches between the sparse hot path (default) and the
// dense reference pipeline (Config.ExactDiagnosis). Both produce identical
// reports; the hint only ever accelerates the sparse path.
func (p *Profile) violationsHinted(errCtx Context, abnormal *metrics.Trace, hint *WindowHint) (*ViolationReport, error) {
	set, err := p.invariantsFor(errCtx)
	if err != nil {
		return nil, err
	}
	if p.sys.cfg.ExactDiagnosis {
		return p.violationsDense(set, abnormal)
	}
	return p.violationsSparse(set, abnormal, hint)
}

// violationsDense is the reference pipeline: full association matrix
// (through the profile's matrix cache) plus ViolationsMasked over the set.
func (p *Profile) violationsDense(set *invariant.Set, abnormal *metrics.Trace) (*ViolationReport, error) {
	mat, mask, err := p.analyze(abnormal)
	if err != nil {
		return nil, err
	}
	raw, known, err := set.ViolationsMasked(mat, p.sys.cfg.Epsilon, mask)
	if err != nil {
		return nil, err
	}
	// surface is the known mask the report shows: nil on a clean window
	// (ViolationsMasked's known is then all-true), possibly materialised by
	// the lifecycle when quarantined edges must read as unknown.
	var surface []bool
	if mask != nil {
		surface = known
	}
	if p.lc != nil {
		pairs := set.SortedPairs()
		score := func(k int) (float64, bool) {
			pr := pairs[k]
			if mask != nil && !mask.OK(pr.I, pr.J) {
				return 0, false
			}
			return mat.Get(pr.I, pr.J), true
		}
		raw, surface = p.lifecyclePost(set, raw, surface, score)
	}
	rep := &ViolationReport{Tuple: signature.Tuple(raw), Coverage: 1, set: set}
	if surface != nil {
		// Degraded window (or quarantined edges): surface the known mask
		// and the checkable fraction.
		rep.Known = surface
		checkable := 0
		for _, ok := range surface {
			if ok {
				checkable++
			}
		}
		if len(surface) > 0 {
			rep.Coverage = float64(checkable) / float64(len(surface))
		}
	}
	for k, pr := range set.SortedPairs() {
		if raw[k] && (surface == nil || surface[k]) {
			rep.Violated = append(rep.Violated, pr)
		}
	}
	return rep, nil
}

// BuildSignature records the violation tuple of an investigated problem in
// the profile's signature entries: "Once the performance problem is
// resolved, a new signature will be added into the signature base."
func (p *Profile) BuildSignature(problem string, abnormal *metrics.Trace) error {
	_, _, err := p.buildSignature(p.key, problem, abnormal)
	return err
}

// buildSignature computes and merges the signature, returning the stored
// entry and whether it was new. Storage is idempotent by (context,
// fingerprint): re-labelling the same investigated problem — a retried POST,
// a re-run study — must not inflate the database and skew best-match scans.
func (p *Profile) buildSignature(errCtx Context, problem string, abnormal *metrics.Trace) (signature.Entry, bool, error) {
	rep, err := p.violations(errCtx, abnormal)
	if err != nil {
		return signature.Entry{}, false, err
	}
	entry := signature.Entry{Tuple: rep.Tuple, Problem: problem, IP: p.key.IP, Workload: p.key.Workload}
	p.mu.Lock()
	added := p.sigs.Merge(entry)
	p.mu.Unlock()
	return entry, added, nil
}

// mergeSignature stores an already-built entry unless an identical one is
// present (used by LoadFrom and fleet anti-entropy), reporting whether the
// entry was added.
func (p *Profile) mergeSignature(e signature.Entry) bool {
	p.mu.Lock()
	added := p.sigs.Merge(e)
	p.mu.Unlock()
	return added
}

// setDetector installs a loaded detector (used by LoadFrom).
func (p *Profile) setDetector(d *detect.Detector) {
	p.mu.Lock()
	p.detector = d
	p.mu.Unlock()
}

// setInvariants installs a loaded invariant set (used by LoadFrom).
func (p *Profile) setInvariants(set *invariant.Set) {
	p.mu.Lock()
	p.invariants = set
	p.mu.Unlock()
	if p.lc != nil {
		p.lc.install(set)
	}
}

// SignatureCount returns the number of stored signatures.
func (p *Profile) SignatureCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Len()
}

// SignatureSnapshot returns a deep copy of the profile's signature
// database, taken under the profile lock — safe to read, match and audit
// while concurrent BuildSignature calls keep writing to the live one.
func (p *Profile) SignatureSnapshot() *signature.DB {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Clone()
}

// signatureEntries returns a deep copy of the profile's stored signatures
// in insertion order, copied once under the profile lock.
func (p *Profile) signatureEntries() []signature.Entry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.Entries()
}

// Diagnose runs cause inference on an abnormal metric window. The pipeline
// is masked-first: invariants whose metrics were unavailable are reported
// unknown rather than violated, signature similarity is computed only over
// the known invariants, and scores and Confidence are weighted by the
// checkable fraction; a clean window is the all-known case of the same
// path.
func (p *Profile) Diagnose(abnormal *metrics.Trace) (*Diagnosis, error) {
	return p.diagnose(p.key, abnormal)
}

func (p *Profile) diagnose(errCtx Context, abnormal *metrics.Trace) (*Diagnosis, error) {
	return p.diagnoseHinted(errCtx, abnormal, nil)
}

// DiagnoseHinted is Diagnose with serving-layer reuse state: a window
// fingerprint for the report cache and/or a lazily built scorer over
// incrementally maintained per-metric state. See WindowHint.
func (p *Profile) DiagnoseHinted(abnormal *metrics.Trace, hint *WindowHint) (*Diagnosis, error) {
	return p.diagnoseHinted(p.key, abnormal, hint)
}

func (p *Profile) diagnoseHinted(errCtx Context, abnormal *metrics.Trace, hint *WindowHint) (*Diagnosis, error) {
	rep, err := p.violationsHinted(errCtx, abnormal, hint)
	if err != nil {
		return nil, err
	}
	diag := &Diagnosis{Context: errCtx, Tuple: rep.Tuple, Known: rep.Known, Coverage: rep.Coverage}
	for _, pr := range rep.Violated {
		diag.Hints = append(diag.Hints, p.pairLabel(pr))
	}
	if rep.Known != nil {
		// Name unknown pairs against the set the report was computed with,
		// not a re-read of the live one: a retrain or shadow promotion
		// mid-diagnosis must not mix two generations in one verdict.
		set := rep.set
		if set == nil {
			if set, err = p.invariantsFor(errCtx); err != nil {
				return nil, err
			}
		}
		for k, ok := range rep.Known {
			if !ok {
				diag.Unknown = append(diag.Unknown, p.pairLabel(set.SortedPairs()[k]))
			}
		}
	}
	// The profile is the signature scope: its entries all carry the
	// profile's own context (empty for the global no-context profile, which
	// matches any).
	p.mu.RLock()
	ranked, err := p.sigs.RankProblems(rep.Tuple, rep.Known, p.key.IP, p.key.Workload, p.sys.cfg.Similarity, p.sys.cfg.TopK)
	p.mu.RUnlock()
	if err != nil {
		if errors.Is(err, signature.ErrEmpty) {
			return diag, nil // hints only
		}
		return nil, err
	}
	// Weight similarity by the checkable fraction: a perfect match found
	// while blind to half the invariants is only half the evidence.
	if diag.Coverage < 1 {
		for i := range ranked {
			ranked[i].Score *= diag.Coverage
		}
	}
	diag.Causes = ranked
	if len(ranked) > 0 {
		diag.Confidence = ranked[0].Score
	}
	return diag, nil
}

// ProfileStats is an operator-facing snapshot of one profile.
type ProfileStats struct {
	// Context is the profile's operation context.
	Context Context
	// HasModel reports whether a CPI performance model is trained.
	HasModel bool
	// Invariants is the size of the trained invariant set (0 if none).
	Invariants int
	// Signatures is the number of stored problem signatures.
	Signatures int
	// CPIRuns and Windows are the training-pool sizes (after dedupe and
	// capping).
	CPIRuns, Windows int
	// Monitors is the number of live attached monitors.
	Monitors int
	// Cache reports the profile's association-matrix cache counters
	// (shared with the sparse path's report cache).
	Cache CacheStats
	// Sparse reports the sparse diagnosis path's edge counters.
	Sparse SparseStats
	// SigIndex reports the signature retrieval index: structure (scopes,
	// buckets, zero-tuple groups) and index-vs-scan query counters.
	SigIndex signature.IndexStats
	// Lifecycle reports the drift-lifecycle counters (zero when the
	// lifecycle is disabled).
	Lifecycle LifecycleStats
}

// Stats snapshots the profile for reporting (invarctl profiles).
func (p *Profile) Stats() ProfileStats {
	p.mu.RLock()
	st := ProfileStats{
		Context:    p.key,
		HasModel:   p.detector != nil,
		Signatures: p.sigs.Len(),
		CPIRuns:    p.cpiPool.size(),
		Windows:    p.windowPool.size(),
	}
	if p.invariants != nil {
		st.Invariants = p.invariants.Len()
	}
	p.mu.RUnlock()
	st.Monitors = p.monitors.Len()
	st.Cache = p.CacheStats()
	st.Sparse = p.SparseStats()
	st.SigIndex = p.SignatureIndexStats()
	st.Lifecycle = p.LifecycleStats()
	return st
}

// SignatureIndexStats snapshots the profile's signature retrieval index:
// partition structure plus the cumulative index-vs-scan query counters.
func (p *Profile) SignatureIndexStats() signature.IndexStats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.sigs.IndexStats()
}
