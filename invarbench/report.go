package main

import (
	"math"
	"strings"
	"time"

	"invarnetx/internal/server"
)

// decl is a metric the benchmark declares in BENCHMARK.json.
type decl struct{ name, unit string }

// endToEnd are the declared end-to-end metrics: defined, and never zero, on
// every workload. op_* is the latency of the workload's defining operation:
// the batch acknowledgement on ingest-firehose, the verdict on the diagnose
// workloads. The declared tail is a p90 read stretch by stretch (see
// series.steadyPercentile); whole-run p99s and the acknowledgement p90 are
// printed beside it.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"ingest_samples_per_s", "samples/s"},
	{"ingest_ack_p50_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"cpu_us_per_op", "us"},
}

// perLayer are the declared per-layer metrics: the layers every workload
// exercises, each with a measured value on every workload. The other layer
// metrics, the counters that tell the workloads apart included, are
// printed, and recorded in the ledger, wherever their layer runs.
var perLayer = []decl{
	{"core.train_s", "s"},
	{"core.save_s", "s"},
	{"core.load_s", "s"},
	{"detect.offer_ns", "ns"},
	{"mic.slider_append_us", "us"},
	{"detect.alerts", "count"},
}

// outcome is everything one run measured.
type outcome struct {
	*tally
	setups  []setupTimes
	loadRef time.Duration
	delta   statsDelta
	elapsed time.Duration // measured phase, until every accepted batch applied
	cpu     time.Duration // daemon CPU over the measured phase
	hwmKB   int64

	layer       map[string][]float64 // replay samples by metric name
	residuals   []float64            // core.self_ms per replayed diagnosis
	residualSum time.Duration
	wholeSum    time.Duration
}

func (o *outcome) sample(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string][]float64{}
	}
	o.layer[name] = append(o.layer[name], v)
}

// residual records what the timed parts leave of one whole diagnosis.
func (o *outcome) residual(whole, parts time.Duration) {
	o.residuals = append(o.residuals, ms(whole-parts))
	o.residualSum += whole - parts
	o.wholeSum += whole
}

func (o *outcome) counter(f func(*server.Stats) int64) int64 { return o.delta.d(f) }

// endToEndMetrics computes every end-to-end metric the run can give. The
// undeclared ones (verdict_*, label_*, top1_accuracy, error_share, the
// acknowledgement tails) are printed where the workload has the operation;
// the declared ones always.
func (o *outcome) endToEndMetrics() *metricSet {
	s := &metricSet{}
	var setup []float64
	for _, t := range o.setups {
		setup = append(setup, t.total().Seconds())
	}
	s.add("setup_s", "s", median(setup), len(setup))
	s.add("ingest_samples_per_s", "samples/s", float64(o.samples)/o.elapsed.Seconds(), int(o.batches))
	s.addTail("ingest_ack_p50_ms", "ms", tailPercentile(o.ack.msValues(), 50))
	s.addTail("ingest_ack_p90_ms", "ms", o.ack.steadyPercentile(90))
	s.addTail("ingest_ack_p99_ms", "ms", tailPercentile(o.ack.msValues(), 99))
	primary := o.ack
	if o.verdict.len() > 0 {
		primary = o.verdict
	}
	s.addTail("op_p50_ms", "ms", tailPercentile(primary.msValues(), 50))
	s.addTail("op_p90_ms", "ms", primary.steadyPercentile(90))
	if o.verdict.len() > 0 {
		s.addTail("verdict_p50_ms", "ms", tailPercentile(o.verdict.msValues(), 50))
		s.addTail("verdict_p99_ms", "ms", tailPercentile(o.verdict.msValues(), 99))
		s.add("top1_accuracy", "ratio", float64(o.top1Hits)/float64(o.verdicts), int(o.verdicts))
	} else {
		s.na("verdict_p50_ms", "ms")
		s.na("verdict_p99_ms", "ms")
		s.na("top1_accuracy", "ratio")
	}
	if o.label.len() > 0 {
		s.addTail("label_p50_ms", "ms", tailPercentile(o.label.msValues(), 50))
		s.addTail("label_p90_ms", "ms", tailPercentile(o.label.msValues(), 90))
	} else {
		s.na("label_p50_ms", "ms")
		s.na("label_p90_ms", "ms")
	}
	s.add("error_share", "ratio", float64(o.errors())/float64(max(o.attempted, 1)), int(o.attempted))
	s.add("rss_peak_mb", "MB", float64(o.hwmKB)/1024, 1)
	ops := o.batches + o.verdicts + o.labels
	s.add("cpu_us_per_op", "us", float64(o.cpu)/float64(time.Microsecond)/float64(max(ops, 1)), int(ops))
	return s
}

// layerMetrics computes the per-layer metrics. Counters come from
// /v1/stats deltas and response bodies in every run; span times only from a
// traced run's replay.
func (o *outcome) layerMetrics(traced bool) *metricSet {
	s := &metricSet{}
	if len(o.depth) > 0 {
		s.addTail("server.queue_depth_p99", "count", tailPercentile(o.depth, 99))
	} else {
		s.na("server.queue_depth_p99", "count") // raw-TCP acks carry no queue depth
	}
	shed := o.counter(func(st *server.Stats) int64 { return st.IngestShed + st.DiagnoseShed })
	s.add("server.shed_share", "ratio", float64(shed)/float64(max(o.attempted, 1)), int(o.attempted))
	if len(o.taskMS) > 0 {
		s.addTail("server.task_ms_p50", "ms", tailPercentile(append([]float64(nil), o.taskMS...), 50))
		s.addTail("server.task_ms_p99", "ms", tailPercentile(append([]float64(nil), o.taskMS...), 99))
		s.addTail("server.wait_ms_p50", "ms", tailPercentile(append([]float64(nil), o.waitMS...), 50))
		s.addTail("server.wait_ms_p99", "ms", tailPercentile(append([]float64(nil), o.waitMS...), 99))
	} else {
		for _, n := range []string{"server.task_ms_p50", "server.task_ms_p99", "server.wait_ms_p50", "server.wait_ms_p99"} {
			s.na(n, "ms")
		}
	}

	alerts := o.counter(func(st *server.Stats) int64 { return st.Alerts })
	s.add("detect.alerts", "count", float64(alerts), int(o.batches))
	screened := o.counter(func(st *server.Stats) int64 { return st.SparseScreenedPairs })
	exact := o.counter(func(st *server.Stats) int64 { return st.SparseExactPairs })
	skipped := o.counter(func(st *server.Stats) int64 { return st.SparseSkippedPairs })
	hits := o.counter(func(st *server.Stats) int64 { return st.AssocCacheHits })
	misses := o.counter(func(st *server.Stats) int64 { return st.AssocCacheMisses })
	s.add("invariant.pairs_evaluated", "count", float64(screened+exact+skipped), int(misses))
	// Per evaluated window: report-cache misses are the windows whose edges
	// were walked.
	if windows := misses; screened+exact > 0 && windows > 0 {
		s.add("invariant.pairs_screened", "count", float64(screened)/float64(windows), int(windows))
		s.add("invariant.pairs_exact", "count", float64(exact)/float64(windows), int(windows))
		s.add("invariant.screen_ratio", "ratio", float64(screened)/float64(screened+exact), int(screened+exact))
	} else {
		s.na("invariant.pairs_screened", "count")
		s.na("invariant.pairs_exact", "count")
		s.na("invariant.screen_ratio", "ratio")
	}
	scanned := o.counter(func(st *server.Stats) int64 { return st.SigScanEntries })
	s.add("signature.entries_scanned", "count", float64(scanned), int(o.verdicts))
	s.add("core.cache_hits", "count", float64(hits), int(hits+misses))
	if hits+misses > 0 {
		s.add("core.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	} else {
		s.na("core.cache_hit_ratio", "ratio")
	}
	if o.verdicts > 0 {
		s.add("signature.entries_per_query", "count", float64(scanned)/float64(o.verdicts), int(o.verdicts))
		idx := o.counter(func(st *server.Stats) int64 { return st.SigIndexQueries })
		scan := o.counter(func(st *server.Stats) int64 { return st.SigIndexScanQueries })
		s.add("signature.index_share", "ratio", float64(idx)/float64(max(idx+scan, 1)), int(idx+scan))
	} else {
		s.na("signature.entries_per_query", "count")
		s.na("signature.index_share", "ratio")
	}
	if len(o.late) > 0 {
		s.addTail("loadgen.late_p99_ms", "ms", tailPercentile(durationsMS(o.late), 99))
	} else {
		s.na("loadgen.late_p99_ms", "ms") // closed loop: no schedule to be late against
	}

	var train, save []float64
	for _, t := range o.setups {
		train = append(train, t.train.Seconds())
		save = append(save, t.save.Seconds())
	}
	s.add("core.train_s", "s", median(train), len(train))
	s.add("core.save_s", "s", median(save), len(save))
	s.add("core.load_s", "s", o.loadRef.Seconds(), 1)
	if !traced {
		return s
	}

	// Span times from the replay: medians per call.
	spans := []decl{
		{"server.trace_from_samples_us", "us"},
		{"detect.offer_ns", "ns"},
		{"mic.slider_append_us", "us"},
		{"mic.prepare_ms", "ms"},
		{"invariant.edges_ms", "ms"},
		{"core.diagnose_ms", "ms"},
		{"signature.match_ms", "ms"},
		{"signature.rank_ms", "ms"},
		{"signature.merge_us", "us"},
	}
	for _, sp := range spans {
		if vs := o.layer[sp.name]; len(vs) > 0 {
			s.add(sp.name, sp.unit, median(append([]float64(nil), vs...)), len(vs))
		} else {
			s.na(sp.name, sp.unit)
		}
	}
	if len(o.residuals) > 0 {
		s.add("core.self_ms", "ms", median(append([]float64(nil), o.residuals...)), len(o.residuals))
		s.add("core.self_share", "ratio", float64(o.residualSum)/float64(o.wholeSum), len(o.residuals))
	} else {
		s.na("core.self_ms", "ms")
		s.na("core.self_share", "ratio")
	}
	return s
}

// loadgenSelf is the load generator's own time per operation in the traced
// run: each op.* span's self time, what its client-call children leave.
func loadgenSelf(spans []span) (float64, int) {
	self := selfTimes(spans)
	var vs []float64
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "op.") {
			vs = append(vs, float64(self[sp.ID])/float64(time.Microsecond))
		}
	}
	if len(vs) == 0 {
		return math.NaN(), 0
	}
	return median(vs), len(vs)
}
