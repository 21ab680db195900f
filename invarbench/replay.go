package main

import (
	"fmt"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/server"
	"invarnetx/internal/signature"
)

// The traced run replays the measured phase's operations in-process, in
// schedule order, through the public functions of each layer, against a
// system restored from the daemon's own store. Each call sees the cache
// state the daemon saw: every cold event diagnoses a window generation never
// seen before, every warm verdict re-diagnoses a window already cached.
//
// core.Profile.DiagnoseHinted is timed as one call; its parts (MIC
// preparation, edge walk, retrieval, ranking) are then timed by calling the
// same public functions again on the same inputs. What the parts leave of the
// whole call is core.self_ms, the residual no layer span accounts for.

// replayOp is one operation of the measured phase, as the daemon served it.
type replayOp struct {
	kind    int
	win     window          // kindEvent, kindVerdict, kindLabel
	problem string          // kindLabel
	ctx     core.Context    // kindIngest
	batch   []server.Sample // kindIngest
	due     time.Duration   // schedule position, for ordering
}

// replayState is the in-process mirror of the daemon's per-context state.
type replayState struct {
	ref      *core.System
	sliders  map[core.Context][]*mic.Slider
	monitors map[core.Context]*detect.Monitor
	sigs     map[core.Context]*signature.DB
	window   int
}

func (st *replayState) slidersFor(ctx core.Context) []*mic.Slider {
	s, ok := st.sliders[ctx]
	if !ok {
		s = newSliders(st.window)
		st.sliders[ctx] = s
	}
	return s
}

func (st *replayState) monitorFor(ctx core.Context) (*detect.Monitor, error) {
	m, ok := st.monitors[ctx]
	if !ok {
		var err error
		if m, err = st.ref.Profile(ctx).NewMonitor(nil); err != nil {
			return nil, err
		}
		m.DisableLog = true
		st.monitors[ctx] = m
	}
	return m, nil
}

// sigsFor is the replay's copy of a context's signature base: the profile's
// snapshot, grown by the labels replayed so far.
func (st *replayState) sigsFor(ctx core.Context) *signature.DB {
	db, ok := st.sigs[ctx]
	if !ok {
		db = st.ref.Profile(ctx).SignatureSnapshot()
		st.sigs[ctx] = db
	}
	return db
}

// timed runs fn as a child span of parent and returns its duration.
func timed(tr *tracer, name string, parent, op int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	tr.record(name, parent, op, start, end)
	return end.Sub(start)
}

// offerAll feeds a batch's CPI readings to the monitor the way the serving
// layer's ingest task does.
func offerAll(mon *detect.Monitor, b []server.Sample) {
	for _, s := range b {
		mon.Offer(s.CPI)
		if mon.Alert() {
			mon.Reset()
		}
	}
}

// replayIngest times one ingested batch through the slider and monitor
// layers. rebuild marks a batch that replaces the whole window: the daemon
// then rebuilds the sliders from the window instead of appending.
func (st *replayState) replayIngest(out *outcome, tr *tracer, op, parent int64, ctx core.Context, b []server.Sample, rebuild bool) error {
	mon, err := st.monitorFor(ctx)
	if err != nil {
		return err
	}
	sliders := st.slidersFor(ctx)
	cols, valid := columns(b)
	d := timed(tr, "mic.Slider.AppendBatch", parent, op, func() {
		for m, sl := range sliders {
			if rebuild {
				sl.Reset()
			}
			sl.AppendBatch(cols[m], valid[m])
		}
	})
	out.sample("mic.slider_append_us", float64(d)/float64(time.Microsecond))
	d = timed(tr, "detect.Monitor.Offer", parent, op, func() { offerAll(mon, b) })
	out.sample("detect.offer_ns", float64(d)/float64(len(b)))
	return nil
}

// sliderScorer builds the MIC scorer from slider snapshots, as the serving
// layer's window hint does.
func sliderScorer(sliders []*mic.Slider) (*mic.Batch, error) {
	preps := make([]*mic.Prepared, len(sliders))
	for i, sl := range sliders {
		if p, err := sl.Prepared(); err == nil {
			preps[i] = p
		}
	}
	return mic.NewBatchPrepared(preps)
}

// replayDiagnose replays diagnose-workload operations until replayBudget is
// spent. warm lists windows the daemon had ingested and diagnosed before the
// measured phase (triage-mixed); they are diagnosed once here too, untimed,
// so the replay's report cache holds what the daemon's held.
func replayDiagnose(out *outcome, tr *tracer, ref *core.System, ops []replayOp, warm []window) error {
	st := &replayState{
		ref:      ref,
		sliders:  map[core.Context][]*mic.Slider{},
		monitors: map[core.Context]*detect.Monitor{},
		sigs:     map[core.Context]*signature.DB{},
		window:   faultTicks,
	}
	measure := ref.Config().Similarity
	eps := ref.Config().Epsilon
	// Window generation fingerprints: one per warm context, a fresh one per
	// cold event, as the daemon's stream generation counter gives them.
	var gen uint64 = 1 << 32
	warmFP := map[core.Context]uint64{}
	for _, w := range warm {
		gen++
		warmFP[w.ctx] = gen
		trace, err := server.TraceFromSamples(w.ctx.Workload, w.ctx.IP, w.samples)
		if err != nil {
			return err
		}
		if _, err := ref.Profile(w.ctx).DiagnoseHinted(trace, &core.WindowHint{FP: gen, HasFP: true}); err != nil {
			return err
		}
		st.sigsFor(w.ctx)
	}
	deadline := time.Now().Add(replayBudget)
	for i, o := range ops {
		if time.Now().After(deadline) {
			break
		}
		op := int64(i + 1)
		switch o.kind {
		case kindIngest:
			root, end := tr.begin("replay.ingest", 0, op)
			err := st.replayIngest(out, tr, op, root, o.ctx, o.batch, false)
			end()
			if err != nil {
				return err
			}
		case kindLabel:
			root, end := tr.begin("replay.label", 0, op)
			err := st.replayLabel(out, tr, root, op, o)
			end()
			if err != nil {
				return err
			}
		case kindVerdict:
			root, end := tr.begin("replay.verdict", 0, op)
			err := st.replayWarm(out, tr, root, op, o.win, warmFP[o.win.ctx], measure)
			end()
			if err != nil {
				return err
			}
		case kindEvent:
			root, end := tr.begin("replay.verdict", 0, op)
			gen++
			err := st.replayCold(out, tr, root, op, o.win, gen, measure, eps)
			end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replayLabel times a label write: the wire samples become a trace, the
// trace's violation tuple is computed, and the entry merges into the base.
func (st *replayState) replayLabel(out *outcome, tr *tracer, root, op int64, o replayOp) error {
	ctx := o.win.ctx
	var trace *metrics.Trace
	var err error
	d := timed(tr, "server.TraceFromSamples", root, op, func() {
		trace, err = server.TraceFromSamples(ctx.Workload, ctx.IP, o.win.samples)
	})
	if err != nil {
		return err
	}
	out.sample("server.trace_from_samples_us", float64(d)/float64(time.Microsecond))
	var rep *core.ViolationReport
	timed(tr, "core.Profile.Violations", root, op, func() { rep, err = st.ref.Profile(ctx).Violations(trace) })
	if err != nil {
		return err
	}
	e := signature.Entry{Tuple: rep.Tuple, Problem: o.problem, IP: ctx.IP, Workload: ctx.Workload}
	db := st.sigsFor(ctx)
	d = timed(tr, "signature.DB.Merge", root, op, func() { db.Merge(e) })
	out.sample("signature.merge_us", float64(d)/float64(time.Microsecond))
	st.ref.MergeSignature(e) // the profile's own base follows, untimed
	return nil
}

// replayWarm times a warm re-diagnosis: the whole call (a report-cache hit)
// and, separately, its retrieval and ranking over the base as it stood.
func (st *replayState) replayWarm(out *outcome, tr *tracer, root, op int64, w window, fp uint64, measure signature.Measure) error {
	trace, err := server.TraceFromSamples(w.ctx.Workload, w.ctx.IP, w.samples)
	if err != nil {
		return err
	}
	var diag *core.Diagnosis
	whole := timed(tr, "core.Profile.DiagnoseHinted", root, op, func() {
		diag, err = st.ref.Profile(w.ctx).DiagnoseHinted(trace, &core.WindowHint{FP: fp, HasFP: true})
	})
	if err != nil {
		return err
	}
	out.sample("core.diagnose_ms", ms(whole))
	parts, err := st.replayRetrieval(out, tr, root, op, w.ctx, diag, measure)
	if err != nil {
		return err
	}
	out.residual(whole, parts)
	return nil
}

// replayCold times a cold event: the ingest of a window that replaces the
// stream's window (slider rebuild, monitor), the whole diagnosis of the new
// window generation, and then its parts one by one.
func (st *replayState) replayCold(out *outcome, tr *tracer, root, op int64, w window, gen uint64, measure signature.Measure, eps float64) error {
	if err := st.replayIngest(out, tr, op, root, w.ctx, w.samples, true); err != nil {
		return err
	}
	var trace *metrics.Trace
	var err error
	d := timed(tr, "server.TraceFromSamples", root, op, func() {
		trace, err = server.TraceFromSamples(w.ctx.Workload, w.ctx.IP, w.samples)
	})
	if err != nil {
		return err
	}
	out.sample("server.trace_from_samples_us", float64(d)/float64(time.Microsecond))
	sliders := st.slidersFor(w.ctx)
	hint := &core.WindowHint{FP: gen, HasFP: true, Scorer: func() invariant.PairScorer {
		b, err := sliderScorer(sliders)
		if err != nil {
			return nil
		}
		return b
	}}
	prof := st.ref.Profile(w.ctx)
	var diag *core.Diagnosis
	whole := timed(tr, "core.Profile.DiagnoseHinted", root, op, func() {
		diag, err = prof.DiagnoseHinted(trace, hint)
	})
	if err != nil {
		return err
	}
	out.sample("core.diagnose_ms", ms(whole))

	var batch *mic.Batch
	prep := timed(tr, "mic.prepare", root, op, func() { batch, err = sliderScorer(sliders) })
	if err != nil {
		return fmt.Errorf("replay: preparing %v: %w", w.ctx, err)
	}
	out.sample("mic.prepare_ms", ms(prep))
	set, err := prof.Invariants()
	if err != nil {
		return err
	}
	var tuple []bool
	edges := timed(tr, "invariant.Set.ComputeEdgesScored", root, op, func() {
		tuple, _, err = set.ComputeEdgesScored(batch, eps)
	})
	if err != nil {
		return err
	}
	out.sample("invariant.edges_ms", ms(edges))
	if signature.Tuple(tuple).String() != diag.Tuple.String() {
		return fmt.Errorf("replay: edge walk of %v disagrees with the diagnosis", w.ctx)
	}
	parts, err := st.replayRetrieval(out, tr, root, op, w.ctx, diag, measure)
	if err != nil {
		return err
	}
	out.residual(whole, prep+edges+parts)
	return nil
}

// replayRetrieval times signature retrieval and ranking for a diagnosis'
// tuple over the replay's copy of the context's base, checks the ranking
// against the diagnosis, and returns the two durations' sum.
func (st *replayState) replayRetrieval(out *outcome, tr *tracer, root, op int64, ctx core.Context, diag *core.Diagnosis, measure signature.Measure) (time.Duration, error) {
	db := st.sigsFor(ctx)
	var matches []signature.Match
	var err error
	match := timed(tr, "signature.DB.MatchMasked", root, op, func() {
		matches, err = db.MatchMasked(diag.Tuple, diag.Known, ctx.IP, ctx.Workload, measure, 0)
	})
	if err != nil {
		return 0, err
	}
	var ranked []signature.Match
	rank := timed(tr, "signature.BestProblem", root, op, func() { ranked = signature.BestProblem(matches) })
	out.sample("signature.match_ms", ms(match))
	out.sample("signature.rank_ms", ms(rank))
	if len(ranked) > 0 && len(diag.Causes) > 0 && ranked[0].Problem != diag.Causes[0].Problem {
		return 0, fmt.Errorf("replay: retrieval for %v ranks %s first, the diagnosis %s",
			ctx, ranked[0].Problem, diag.Causes[0].Problem)
	}
	return match + rank, nil
}
