package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// The diagnose workloads share the simulator corpus: the paper's
// heterogeneous 4-slave cluster with wordcount and TPC-DS contexts, two
// investigated runs per fault and node in the signature base, and the
// daemon's window at the paper's 30-tick fault window.
const (
	// diagnoseConns is the number of open-loop streams, one connection
	// each. On diagnose-cold stream w owns the contexts of
	// corpusWorkloads[w], so the windows of one context are ingested and
	// diagnosed in schedule order.
	diagnoseConns = 2
	// coldRate is diagnose-cold's total event rate (events/s): about a
	// quarter of the closed-loop capacity measured on the reference machine
	// (see README.md).
	coldRate = 125.0
	// coldClusters is how many independent simulated clusters the
	// diagnose-cold corpus spans (see buildCorpus).
	coldClusters = 4
	// coldHeldOut is the number of held-out runs per fault whose windows the
	// cold events cycle through.
	coldHeldOut = 2

	// triage-mixed: per-context history size, and the total rates (per
	// second) of warm re-diagnoses, label writes and JSON ingest batches.
	// Its corpus is one simulated cluster: a verdict's cost follows the
	// 5,000-entry history rather than the invariant set, and four
	// clusters' histories made the daemon's collector the measurement (see
	// README.md).
	triageHistory     = 5000
	triageVerdictRate = 30.0
	triageLabelRate   = 3.0
	triageIngestRate  = 180.0
	triageJSONStreams = 8
	// triageHeldOut sizes the pool of fresh fault windows labels draw from.
	triageHeldOut  = 4
	triageClusters = 1

	// replayBudget bounds the traced in-process replay of a diagnose
	// workload; operations replay in schedule order until it runs out.
	replayBudget = 6 * time.Second
)

// Request kinds of the open-loop schedules.
const (
	kindEvent = iota // diagnose-cold: binary ingest of a window, then verdict
	kindVerdict
	kindLabel
	kindIngest
)

// trainCorpus is the diagnose workloads' training step: per context the CPI
// model and the invariant set, then one signature per investigated window.
func trainCorpus(sys *core.System, c *corpus) error {
	for _, ctx := range c.contexts {
		if err := sys.TrainPerformanceModel(ctx, c.cpis[ctx]); err != nil {
			return err
		}
		if err := sys.TrainInvariants(ctx, c.invWins[ctx]); err != nil {
			return err
		}
	}
	for _, w := range c.sigWins {
		if err := sys.BuildSignature(w.ctx, w.fault, w.trace); err != nil {
			return err
		}
	}
	return nil
}

// referenceDiagnoses diagnoses each window in-process on the reference
// system.
func referenceDiagnoses(ref *core.System, wins []window) ([]*core.Diagnosis, error) {
	out := make([]*core.Diagnosis, len(wins))
	for i, w := range wins {
		tr, err := server.TraceFromSamples(w.ctx.Workload, w.ctx.IP, w.samples)
		if err != nil {
			return nil, err
		}
		if out[i], err = ref.Diagnose(w.ctx, tr); err != nil {
			return nil, fmt.Errorf("reference diagnosis of %v: %w", w.ctx, err)
		}
	}
	return out, nil
}

// streamWindows splits windows by owning stream (the index of their
// workload in corpusWorkloads) and shuffles each stream's order by seed.
func streamWindows(seed int64, wins []window) [diagnoseConns][]int {
	var out [diagnoseConns][]int
	for i, w := range wins {
		out[w.stream] = append(out[w.stream], i)
	}
	rng := stats.NewRNG(seed ^ 0xc01d)
	for s := range out {
		idx := out[s]
		for i := len(idx) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	return out
}

func runDiagnoseCold(o opts, tr *tracer) (*outcome, error) {
	c, err := buildCorpus(o.seed, coldClusters, coldHeldOut)
	if err != nil {
		return nil, err
	}
	train := func(sys *core.System, _ int) (time.Duration, error) {
		t0 := time.Now()
		err := trainCorpus(sys, c)
		return time.Since(t0), err
	}
	d, dir, setups, err := setupRuns(o, "diagnose-cold", faultTicks, false, train)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop(); removeAll(dir) }()
	ref, loadT, err := loadReference(dir)
	if err != nil {
		return nil, err
	}
	want, err := referenceDiagnoses(ref, c.heldOut)
	if err != nil {
		return nil, err
	}
	order := streamWindows(o.seed, c.heldOut)

	cl := client.New("http://"+d.addr, nil)
	before, err := getStats(cl)
	if err != nil {
		return nil, err
	}
	u0, err := d.usage()
	if err != nil {
		return nil, err
	}
	horizon := time.Duration(o.seconds) * time.Second
	rate := coldRate * o.rateScale / diagnoseConns
	tallies := make([]*tally, diagnoseConns)
	done := make([][]int, diagnoseConns) // window index of each completed event, in order
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < diagnoseConns; s++ {
		tallies[s] = &tally{}
		// The two streams are offset by half a period so their events
		// interleave instead of arriving in pairs.
		sched := periodic(kindEvent, rate, time.Duration(float64(s)*float64(time.Second)/rate/diagnoseConns), horizon)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t := tallies[s]
			task := make([]float64, len(sched))
			ok := make([]bool, len(sched))
			timings := openLoop(context.Background(), wallClock{}, start, horizon, sched, func(i int, ev event) {
				wi := order[s][ev.seq%len(order[s])]
				win := c.heldOut[wi]
				op := int64(s)<<40 | int64(i)
				root, endRoot := tr.begin("op.event", 0, op)
				defer endRoot()
				t.attempted++
				_, end := tr.begin("client.IngestFrame", root, op)
				t0 := time.Now()
				ack, err := cl.IngestFrame(context.Background(), win.ctx.Workload, win.ctx.IP, win.samples)
				end()
				if err != nil {
					t.fail(err)
					return
				}
				t.ack.add(ev.due, time.Since(t0))
				t.depth = append(t.depth, float64(ack.QueueDepth))
				t.batches++
				t.samples += int64(ack.Accepted)
				done[s] = append(done[s], wi)
				_, end = tr.begin("client.Diagnose", root, op)
				resp, err := cl.Diagnose(context.Background(), win.ctx.Workload, win.ctx.IP, nil, true)
				end()
				if err != nil {
					t.fail(err)
					return
				}
				if resp.Report == nil || resp.Status != server.StatusDone {
					t.mismatchf("verdict %s for %v not done: %+v", resp.ID, win.ctx, resp.Report)
					return
				}
				if err := sameDiagnosis(resp.Report.Diagnosis, want[wi]); err != nil {
					t.mismatchf("verdict for %v (%s window %d): %v", win.ctx, win.fault, wi, err)
					return
				}
				t.verdicts++
				if resp.Report.Diagnosis.RootCause == win.fault {
					t.top1Hits++
				}
				task[i] = resp.Report.LatencyMS
				ok[i] = true
			})
			for i, tm := range timings {
				t.late = append(t.late, tm.late)
				if ok[i] {
					t.verdict.add(tm.due, tm.latency)
					t.taskMS = append(t.taskMS, task[i])
					t.waitMS = append(t.waitMS, ms(tm.latency)-task[i])
				}
			}
		}(s)
	}
	wg.Wait()
	all := &tally{}
	for _, t := range tallies {
		all.merge(t)
	}
	after, err := waitApplied(cl, before, all.batches)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	u1, err := d.usage()
	if err != nil {
		return nil, err
	}

	delta := statsDelta{before, after}
	seqs := map[core.Context][][]server.Sample{}
	for s := range done {
		for _, wi := range done[s] {
			w := c.heldOut[wi]
			seqs[w.ctx] = append(seqs[w.ctx], w.samples)
		}
	}
	checkIngestCounters(all, delta, ref, seqs)

	out := &outcome{tally: all, setups: setups, loadRef: loadT, delta: delta,
		elapsed: elapsed, cpu: u1.cpu - u0.cpu, hwmKB: u1.hwmKB}
	if tr != nil {
		var ops []replayOp
		for k := 0; k < len(done[0]) || k < len(done[1]); k++ {
			for s := range done {
				if k < len(done[s]) {
					ops = append(ops, replayOp{kind: kindEvent, win: c.heldOut[done[s][k]]})
				}
			}
		}
		if err := replayDiagnose(out, tr, ref, ops, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkIngestCounters is the oracle for the ingest side: the daemon's sample
// and batch counters against what was acknowledged, and its alert count
// against an in-process monitor replay of every context's sequence.
func checkIngestCounters(all *tally, delta statsDelta, ref *core.System, seqs map[core.Context][][]server.Sample) {
	wantAlerts, err := replayAlerts(ref, seqs)
	if err != nil {
		all.mismatchf("monitor replay: %v", err)
		return
	}
	if got := delta.d(func(s *server.Stats) int64 { return s.Alerts }); got != wantAlerts {
		all.mismatchf("daemon raised %d alerts, monitor replay %d", got, wantAlerts)
	}
	if got := delta.d(func(s *server.Stats) int64 { return s.IngestSamples }); got != all.samples {
		all.mismatchf("daemon counted %d ingested samples, %d acknowledged", got, all.samples)
	}
	if got := delta.d(func(s *server.Stats) int64 { return s.IngestBatches }); got != all.batches {
		all.mismatchf("daemon counted %d batches, %d acknowledged", got, all.batches)
	}
}

func runTriageMixed(o opts, tr *tracer) (*outcome, error) {
	c, err := buildCorpus(o.seed, triageClusters, triageHeldOut)
	if err != nil {
		return nil, err
	}
	streams := buildSynthStreams(o.seed, "triage-json", triageJSONStreams, 64)
	// One alert window per context is ingested before the measured phase
	// and re-diagnosed warm; every other held-out window is a fresh label.
	var alertWins, labelWins []window
	seen := map[core.Context]bool{}
	for _, w := range c.heldOut {
		if !seen[w.ctx] {
			seen[w.ctx] = true
			alertWins = append(alertWins, w)
		} else {
			labelWins = append(labelWins, w)
		}
	}
	sort.Slice(alertWins, func(a, b int) bool {
		return alertWins[a].ctx.Workload+alertWins[a].ctx.IP < alertWins[b].ctx.Workload+alertWins[b].ctx.IP
	})
	rng := stats.NewRNG(o.seed ^ 0x1abe1)
	for i := len(labelWins) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		labelWins[i], labelWins[j] = labelWins[j], labelWins[i]
	}

	var history []signature.Entry
	train := func(sys *core.System, rep int) (time.Duration, error) {
		t0 := time.Now()
		if err := trainCorpus(sys, c); err != nil {
			return 0, err
		}
		for _, ctx := range streams.contexts {
			if err := sys.TrainPerformanceModel(ctx, streams.cpis[ctx]); err != nil {
				return 0, err
			}
		}
		trainT := time.Since(t0)
		if history == nil {
			// Generated input, derived once from the trained signatures and
			// left out of the set-up time.
			history = historyCopies(o.seed, sys.SignatureSnapshot().Entries(), triageHistory)
		}
		t0 = time.Now()
		for _, e := range history {
			sys.MergeSignature(e)
		}
		return trainT + time.Since(t0), nil
	}
	d, dir, setups, err := setupRuns(o, "triage-mixed", faultTicks, false, train)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop(); removeAll(dir) }()
	ref, loadT, err := loadReference(dir)
	if err != nil {
		return nil, err
	}
	want, err := referenceDiagnoses(ref, alertWins)
	if err != nil {
		return nil, err
	}

	cl := client.New("http://"+d.addr, nil)
	// Warm-up, outside the measured phase: ingest each alert window and
	// diagnose it once, which fills the report cache the re-diagnoses hit.
	for i, w := range alertWins {
		if _, err := cl.IngestFrame(context.Background(), w.ctx.Workload, w.ctx.IP, w.samples); err != nil {
			return nil, fmt.Errorf("warm-up ingest: %w", err)
		}
		resp, err := cl.Diagnose(context.Background(), w.ctx.Workload, w.ctx.IP, nil, true)
		if err != nil {
			return nil, fmt.Errorf("warm-up diagnose: %w", err)
		}
		if resp.Report == nil {
			return nil, fmt.Errorf("oracle: warm-up verdict for %v has no report", w.ctx)
		}
		if err := sameDiagnosis(resp.Report.Diagnosis, want[i]); err != nil {
			return nil, fmt.Errorf("oracle: warm-up verdict for %v: %w", w.ctx, err)
		}
	}

	before, err := getStats(cl)
	if err != nil {
		return nil, err
	}
	u0, err := d.usage()
	if err != nil {
		return nil, err
	}
	horizon := time.Duration(o.seconds) * time.Second
	var jsonMine [diagnoseConns][]core.Context
	for i, ctx := range streams.contexts {
		jsonMine[i%diagnoseConns] = append(jsonMine[i%diagnoseConns], ctx)
	}
	tallies := make([]*tally, diagnoseConns)
	logs := make([][]replayOp, diagnoseConns)
	jsonSent := make([][]int, diagnoseConns)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < diagnoseConns; s++ {
		tallies[s] = &tally{}
		jsonSent[s] = make([]int, len(jsonMine[s]))
		per := func(r float64) float64 { return r * o.rateScale / diagnoseConns }
		off := func(r float64, frac float64) time.Duration {
			return time.Duration(frac * float64(time.Second) / per(r))
		}
		// Offsets spread the three kinds over each period and the two
		// streams over each other.
		sched := mergeSchedules(
			periodic(kindVerdict, per(triageVerdictRate), off(triageVerdictRate, 0.5*float64(s)), horizon),
			periodic(kindLabel, per(triageLabelRate), off(triageLabelRate, 0.25+0.5*float64(s)), horizon),
			periodic(kindIngest, per(triageIngestRate), off(triageIngestRate, 0.1+0.5*float64(s)), horizon),
		)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t := tallies[s]
			kinds := make([]int, len(sched))
			ok := make([]bool, len(sched))
			timings := openLoop(context.Background(), wallClock{}, start, horizon, sched, func(i int, ev event) {
				kinds[i] = ev.kind
				op := int64(s)<<40 | int64(i)
				t.attempted++
				switch ev.kind {
				case kindVerdict:
					k := (ev.seq*diagnoseConns + s) % len(alertWins)
					w := alertWins[k]
					root, endRoot := tr.begin("op.verdict", 0, op)
					_, end := tr.begin("client.Diagnose", root, op)
					resp, err := cl.Diagnose(context.Background(), w.ctx.Workload, w.ctx.IP, nil, true)
					end()
					endRoot()
					if err != nil {
						t.fail(err)
						return
					}
					if resp.Report == nil || resp.Status != server.StatusDone || resp.Report.Diagnosis == nil {
						t.mismatchf("verdict %s for %v not done", resp.ID, w.ctx)
						return
					}
					got := resp.Report.Diagnosis
					if got.Tuple != want[k].Tuple.String() {
						t.mismatchf("warm verdict tuple for %v differs from the reference", w.ctx)
						return
					}
					if err := prefixOfReference(wireCauses(got), coreCauses(want[k]), isLabelProblem); err != nil {
						t.mismatchf("warm verdict for %v: %v", w.ctx, err)
						return
					}
					t.verdicts++
					if top := topKnown(got); top == w.fault {
						t.top1Hits++
					}
					t.taskMS = append(t.taskMS, resp.Report.LatencyMS)
					logs[s] = append(logs[s], replayOp{kind: kindVerdict, win: w, due: ev.due})
					ok[i] = true
				case kindLabel:
					n := ev.seq*diagnoseConns + s
					w := labelWins[n%len(labelWins)]
					problem := fmt.Sprintf("label-%d", n)
					root, endRoot := tr.begin("op.label", 0, op)
					_, end := tr.begin("client.AddSignature", root, op)
					err := cl.AddSignature(context.Background(), w.ctx.Workload, w.ctx.IP, problem, w.samples)
					end()
					endRoot()
					if err != nil {
						t.fail(err)
						return
					}
					t.labels++
					logs[s] = append(logs[s], replayOp{kind: kindLabel, win: w, problem: problem, due: ev.due})
					ok[i] = true
				case kindIngest:
					j := ev.seq % len(jsonMine[s])
					ctx := jsonMine[s][j]
					b := streams.batch(ctx, jsonSent[s][j])
					root, endRoot := tr.begin("op.ingest", 0, op)
					_, end := tr.begin("client.Ingest", root, op)
					t0 := time.Now()
					ack, err := cl.Ingest(context.Background(), ctx.Workload, ctx.IP, b)
					lat := time.Since(t0)
					end()
					endRoot()
					if err != nil {
						t.fail(err)
						return
					}
					jsonSent[s][j]++
					t.ack.add(ev.due, lat)
					t.depth = append(t.depth, float64(ack.QueueDepth))
					t.batches++
					t.samples += int64(ack.Accepted)
					logs[s] = append(logs[s], replayOp{kind: kindIngest, ctx: ctx, batch: b, due: ev.due})
					ok[i] = true
				}
			})
			for i, tm := range timings {
				t.late = append(t.late, tm.late)
				if !ok[i] {
					continue
				}
				switch kinds[i] {
				case kindVerdict:
					t.verdict.add(tm.due, tm.latency)
				case kindLabel:
					t.label.add(tm.due, tm.latency)
				}
			}
			// Server-side task time pairs with the verdict latencies in
			// completion order.
			for i, v := range t.verdict.v {
				t.waitMS = append(t.waitMS, ms(v)-t.taskMS[i])
			}
		}(s)
	}
	wg.Wait()
	all := &tally{}
	for _, t := range tallies {
		all.merge(t)
	}
	after, err := waitApplied(cl, before, all.batches)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	u1, err := d.usage()
	if err != nil {
		return nil, err
	}
	delta := statsDelta{before, after}

	checkIngestCounters(all, delta, ref, streams.sentSequences(jsonMine[:], jsonSent))
	if got := delta.d(func(s *server.Stats) int64 { return s.SignaturesPost }); got != all.labels {
		all.mismatchf("daemon stored %d labelled signatures, %d acknowledged", got, all.labels)
	}

	out := &outcome{tally: all, setups: setups, loadRef: loadT, delta: delta,
		elapsed: elapsed, cpu: u1.cpu - u0.cpu, hwmKB: u1.hwmKB}
	if tr != nil {
		ops := append(logs[0], logs[1]...)
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
		if err := replayDiagnose(out, tr, ref, ops, alertWins); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// topKnown returns the best-ranked cause loaded from the store, skipping
// problems labelled during the run (whose names carry no fault).
func topKnown(d *server.Diagnosis) string {
	for _, c := range d.Causes {
		if !isLabelProblem(c.Problem) {
			return c.Problem
		}
	}
	return ""
}
