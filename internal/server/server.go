package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/fleet"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
)

// Defaults and clamps for the serving configuration.
const (
	// DefaultQueueCap bounds each profile's task queue. At the default the
	// worst-case buffered work per context is 64 batches — overload beyond
	// that sheds with 429 instead of growing memory.
	DefaultQueueCap = 64
	// DefaultWindowCap is the sliding-window length per stream, in ticks
	// (at the paper's 10 s sampling: 20 minutes of telemetry).
	DefaultWindowCap = 120
	// minWindowCap / maxWindowCap clamp operator-supplied window sizes: a
	// window shorter than ~16 ticks cannot carry association structure, and
	// one beyond 4096 ticks multiplies across tenants into real memory.
	minWindowCap = 16
	maxWindowCap = 4096
	// DefaultReportCap bounds the retained diagnosis reports.
	DefaultReportCap = 4096
	// maxBodyBytes bounds one request body (a 4096-tick batch of 26-metric
	// samples is ~2 MB of JSON; 8 MB leaves headroom without letting one
	// request balloon the heap).
	maxBodyBytes = 8 << 20
	// retryAfter is the backpressure hint attached to every 429.
	retryAfter = "1"
)

// Config assembles an invarnetd server.
type Config struct {
	// Core configures the diagnosis system. Validated on New — a server
	// must not boot a profile registry from a garbage config.
	Core core.Config
	// StoreDir, when set, is loaded on New (partial, crash-tolerant) and
	// every profile is persisted into it on Shutdown.
	StoreDir string
	// Workers sizes the detection/diagnosis worker pool (default
	// GOMAXPROCS, min 1).
	Workers int
	// QueueCap bounds each profile's task queue (default DefaultQueueCap).
	QueueCap int
	// WindowCap is the per-stream sliding window length in ticks (default
	// DefaultWindowCap, clamped to [16, 4096]).
	WindowCap int
	// ReportCap bounds retained reports (default DefaultReportCap).
	ReportCap int
	// Fleet, when set, federates this daemon with the configured peers:
	// gossip-replicated signatures, heartbeat liveness and consistent-hash
	// ownership of operation contexts. The serving layer owns the Apply hook;
	// any value set there is replaced.
	Fleet *fleet.Config
}

// withDefaults normalises and clamps the serving knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.WindowCap <= 0 {
		c.WindowCap = DefaultWindowCap
	}
	if c.WindowCap < minWindowCap {
		c.WindowCap = minWindowCap
	}
	if c.WindowCap > maxWindowCap {
		c.WindowCap = maxWindowCap
	}
	if c.ReportCap <= 0 {
		c.ReportCap = DefaultReportCap
	}
	return c
}

// Server is one invarnetd instance: the core System, the per-context
// streams, the worker pool, the report store and the HTTP surface.
type Server struct {
	cfg   Config
	sys   *core.System
	sched *scheduler
	store *reportStore
	ctr   counters
	mux   *http.ServeMux
	fleet *fleet.Fleet // nil when federation is disabled
	start time.Time

	// useSliders enables per-stream incremental MIC preparation: only when
	// diagnosis would score pairs through the stock batched MIC (the one
	// measure whose per-metric state the serving layer knows how to maintain
	// delta-aware) and the sparse path is active to consume the snapshots.
	useSliders bool

	draining atomic.Bool
	shutOnce sync.Once
	shutErr  error

	mu      sync.RWMutex
	streams map[core.Context]*stream
}

// New builds a server. The core config is validated first — an invalid one
// is an error here, not a panic deeper in — and StoreDir, when set, is
// restored immediately so the instance boots with every persisted model,
// invariant set and signature shard. The returned LoadReport (nil without a
// StoreDir) tells the operator what came back and what was skipped.
func New(cfg Config) (*Server, *core.LoadReport, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, nil, fmt.Errorf("server: refusing to boot: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		sys:     core.New(cfg.Core),
		sched:   newScheduler(cfg.Workers),
		store:   newReportStore(cfg.ReportCap),
		streams: make(map[core.Context]*stream),
		start:   time.Now(),
	}
	// A custom Assoc or explicit BatchAssoc must not be silently replaced by
	// MIC slider snapshots — the same gate core.New applies when auto-wiring
	// the batch path.
	s.useSliders = !cfg.Core.ExactDiagnosis &&
		cfg.Core.BatchAssoc == nil &&
		(cfg.Core.Assoc == nil || core.BatchFor(cfg.Core.Assoc) != nil)
	var rep *core.LoadReport
	if cfg.StoreDir != "" {
		r, err := s.sys.LoadFrom(cfg.StoreDir)
		if err == nil {
			rep = r
		}
		// A missing directory is a cold boot, not a failure: SaveTo will
		// create it on shutdown.
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReport)
	s.mux.HandleFunc("GET /v1/profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /v1/signatures", s.handleSignaturesGet)
	s.mux.HandleFunc("POST /v1/signatures", s.handleSignaturesPost)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Fleet != nil {
		s.initFleet(*cfg.Fleet)
	}
	return s, rep, nil
}

// System exposes the underlying diagnosis system — in-process training for
// tests, smoke mode and benchmarks; the HTTP surface stays the only remote
// mutation path.
func (s *Server) System() *core.System { return s.sys }

// Config returns the effective (defaulted, clamped) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// stream returns (creating on first use) the serving state of ctx.
func (s *Server) stream(ctx core.Context) *stream {
	s.mu.RLock()
	st, ok := s.streams[ctx]
	s.mu.RUnlock()
	if ok {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok = s.streams[ctx]; ok {
		return st
	}
	st = &stream{ctx: ctx, queue: newQueue(s.cfg.QueueCap)}
	s.streams[ctx] = st
	return st
}

// Shutdown drains and persists, in strict order: (1) stop admitting — every
// mutating endpoint starts refusing with 503; (2) wait for every accepted
// task to finish, so no accepted sample or pending report is lost; (3) stop
// the worker pool; (4) persist every profile (concurrent SaveTo, atomic
// files). The HTTP listener itself is the caller's to close first
// (http.Server.Shutdown), so no request races the drain. ctx bounds the
// drain wait; on expiry the queues are abandoned and the persistence pass
// still runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		done := make(chan struct{})
		go func() {
			s.sched.drain()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = fmt.Errorf("server: drain aborted: %w", ctx.Err())
		}
		// close joins the worker pool — but a worker wedged inside a task
		// (a stuck diagnosis, a hung callback) would otherwise hang the
		// whole shutdown indefinitely, well past the operator's drain
		// budget. Bound the join by the same context: on expiry the
		// stragglers are abandoned to process exit, and whatever state
		// drained cleanly is still persisted below.
		closed := make(chan struct{})
		go func() {
			s.sched.close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-ctx.Done():
			if s.shutErr == nil {
				s.shutErr = fmt.Errorf("server: worker join aborted: %w", ctx.Err())
			}
		}
		// The fleet drains after the queues: signatures accepted during the
		// drain land in the store first, then the final flush gossips them
		// out, then the anti-entropy state persists.
		if err := s.stopFleet(ctx); err != nil && s.shutErr == nil {
			s.shutErr = fmt.Errorf("server: persisting fleet state: %w", err)
		}
		if s.cfg.StoreDir != "" {
			if err := s.sys.SaveTo(s.cfg.StoreDir); err != nil && s.shutErr == nil {
				s.shutErr = fmt.Errorf("server: persisting profiles: %w", err)
			}
		}
	})
	return s.shutErr
}

// --- HTTP helpers ---------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	if code >= 400 && code < 500 && code != http.StatusTooManyRequests {
		s.ctr.badRequests.Add(1)
	}
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// shed emits the admission-control refusal.
func (s *Server) shed(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", retryAfter)
	writeJSON(w, http.StatusTooManyRequests, apiError{
		Error: fmt.Sprintf("server: %s queue full, retry after %ss", what, retryAfter),
	})
}

func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// refuseDraining guards mutating endpoints during shutdown.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	return false
}

// statusFor maps core errors to HTTP codes: an untrained context is the
// caller's problem (409 — the request is well-formed but the state it needs
// does not exist), everything else is a 500.
func statusFor(err error) int {
	if errors.Is(err, core.ErrNoModel) || errors.Is(err, core.ErrNoInvariants) {
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// --- Handlers -------------------------------------------------------------

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	if ct := r.Header.Get("Content-Type"); ct == ContentTypeFrame ||
		strings.HasPrefix(ct, ContentTypeFrame+";") {
		s.handleIngestFrame(w, r)
		return
	}
	var req IngestRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Workload == "" || req.Node == "" {
		s.fail(w, http.StatusBadRequest, "workload and node are required")
		return
	}
	if err := validateSamples(req.Samples); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := validateStageMarks(req.Stages, len(req.Samples)); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := getBatch()
	b.fromSamples(req.Samples, req.Stages)
	s.admitBatch(w, req.Workload, req.Node, b)
}

// frameBufPool recycles request-body buffers for the binary ingest path.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// handleIngestFrame is the binary twin of the JSON ingest path: one
// length-prefixed columnar frame as the request body, decoded into a pooled
// batch without per-sample allocation, admitted through the same scheduler.
func (s *Server) handleIngestFrame(w http.ResponseWriter, r *http.Request) {
	bufp := frameBufPool.Get().(*[]byte)
	defer func() { frameBufPool.Put(bufp) }()
	buf := (*bufp)[:0]
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, "reading frame: %v", err)
			return
		}
	}
	*bufp = buf[:0] // keep the grown buffer for the pool
	frame, err := splitFrame(buf)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	b := getBatch()
	wb, nb, err := decodeFrame(frame, b)
	if err != nil {
		putBatch(b)
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.admitBatch(w, string(wb), string(nb), b)
}

// admitBatch enqueues one columnar batch onto its stream's queue — shared
// admission for both encodings, so 429 backpressure and the counters behave
// identically. Ownership of b passes here: it returns to the pool after the
// task applies it, or immediately when admission sheds it.
func (s *Server) admitBatch(w http.ResponseWriter, workload, node string, b *ingestBatch) {
	st := s.stream(core.Context{Workload: workload, IP: node})
	n := b.n
	if err := s.sched.enqueue(st.queue, func() { st.apply(s, b); putBatch(b) }); err != nil {
		putBatch(b)
		if errors.Is(err, ErrQueueFull) {
			s.ctr.ingestShed.Add(1)
			s.shed(w, "ingest")
			return
		}
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.ctr.ingestBatches.Add(1)
	s.ctr.ingestSamples.Add(int64(n))
	writeJSON(w, http.StatusAccepted, IngestResponse{
		Accepted:   n,
		QueueDepth: s.sched.depth.Load(),
	})
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req DiagnoseRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Workload == "" || req.Node == "" {
		s.fail(w, http.StatusBadRequest, "workload and node are required")
		return
	}
	if req.Samples != nil {
		if err := validateSamples(req.Samples); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if s.maybeForwardDiagnose(w, r, &req) {
		return
	}
	ctx := core.Context{Workload: req.Workload, IP: req.Node}
	st := s.stream(ctx)
	rep := s.store.create(req.Workload, req.Node)
	s.ctr.reportsPending.Add(1)
	samples := req.Samples
	err := s.sched.enqueue(st.queue, func() {
		s.runDiagnosis(st, rep, samples)
	})
	if err != nil {
		s.ctr.reportsPending.Add(-1)
		s.store.remove(rep.r.ID)
		if errors.Is(err, ErrQueueFull) {
			s.ctr.diagnoseShed.Add(1)
			s.shed(w, "diagnose")
			return
		}
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if req.Wait {
		select {
		case <-rep.done:
		case <-r.Context().Done():
			// The client went away; the work still completes and the
			// report stays retrievable by ID.
		}
	}
	snap := rep.snapshot()
	code := http.StatusAccepted
	if snap.Status != StatusPending {
		code = http.StatusOK
	}
	writeJSON(w, code, DiagnoseResponse{ID: snap.ID, Status: snap.Status, Report: &snap})
}

// runDiagnosis is the diagnose task body (runs on the profile queue).
func (s *Server) runDiagnosis(st *stream, rep *report, samples []Sample) {
	t0 := time.Now()
	finish := func(d *Diagnosis, errMsg string) {
		lat := time.Since(t0)
		s.ctr.diagnoseLatency.observe(lat)
		s.ctr.reportsPending.Add(-1)
		if errMsg != "" {
			s.ctr.reportsFailed.Add(1)
		} else {
			s.ctr.reportsDone.Add(1)
		}
		rep.complete(d, errMsg, float64(lat)/float64(time.Millisecond))
	}
	tr, err := s.traceFor(st, samples)
	if err != nil {
		finish(nil, err.Error())
		return
	}
	// Stream-window diagnoses carry the delta-aware reuse hint: the window
	// generation keys the report cache, and the slider snapshots spare the
	// per-window sort/partition work on a miss. Explicit-sample diagnoses
	// have no serving-side state to reuse.
	var hint *core.WindowHint
	if samples == nil {
		hint = st.windowHint()
	}
	diag, err := s.sys.DiagnoseHinted(st.ctx, tr, hint)
	if err != nil {
		finish(nil, err.Error())
		return
	}
	invariants := len(diag.Tuple)
	st.alerting.Store(false) // a completed diagnosis answers the alert
	finish(diagnosisWire(st.ctx, diag, invariants), "")
}

// traceFor materialises the diagnosis window: the explicit samples when
// given, the stream's current sliding window otherwise.
func (s *Server) traceFor(st *stream, samples []Sample) (*metrics.Trace, error) {
	if samples != nil {
		return TraceFromSamples(st.ctx.Workload, st.ctx.IP, samples)
	}
	if st.windowLen() == 0 {
		return nil, fmt.Errorf("server: no ingested window for %s@%s (ingest first or supply samples)", st.ctx.Workload, st.ctx.IP)
	}
	return st.windowTrace()
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, ok := s.store.get(id)
	if !ok {
		s.fail(w, http.StatusNotFound, "no report %q (unknown, or evicted after completion)", id)
		return
	}
	writeJSON(w, http.StatusOK, rep.snapshot())
}

func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	infos := make(map[core.Context]*ProfileInfo)
	for _, ps := range s.sys.ProfileStats() {
		info := &ProfileInfo{
			Workload:    ps.Context.Workload,
			Node:        ps.Context.IP,
			HasModel:    ps.HasModel,
			Invariants:  ps.Invariants,
			Signatures:  ps.Signatures,
			CPIRuns:     ps.CPIRuns,
			Windows:     ps.Windows,
			CacheHits:   ps.Cache.Hits,
			CacheMisses: ps.Cache.Misses,

			Generation:       ps.Lifecycle.Generation,
			QuarantinedEdges: ps.Lifecycle.Quarantined,
			ShadowAge:        ps.Lifecycle.ShadowAge,
			Promotions:       ps.Lifecycle.Promotions,
			Rollbacks:        ps.Lifecycle.Rollbacks,
		}
		if key, ok := core.ParseCrossContext(ps.Context); ok {
			info.Cross = true
			info.NodeA, info.NodeB, info.Stage = key.NodeA, key.NodeB, key.Stage
		}
		infos[ps.Context] = info
	}
	s.mu.RLock()
	for ctx, st := range s.streams {
		info, ok := infos[ctx]
		if !ok {
			info = &ProfileInfo{Workload: ctx.Workload, Node: ctx.IP}
			infos[ctx] = info
		}
		info.WindowLen = st.windowLen()
		info.Ingested = st.ingested.Load()
		info.Alerts = st.alerts.Load()
		info.Alerting = st.alerting.Load()
	}
	s.mu.RUnlock()
	out := ProfilesResponse{Count: len(infos)}
	for _, info := range infos {
		out.Profiles = append(out.Profiles, *info)
	}
	sort.Slice(out.Profiles, func(a, b int) bool {
		if out.Profiles[a].Workload != out.Profiles[b].Workload {
			return out.Profiles[a].Workload < out.Profiles[b].Workload
		}
		return out.Profiles[a].Node < out.Profiles[b].Node
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSignaturesGet(w http.ResponseWriter, _ *http.Request) {
	entries := s.sys.SignatureEntries()
	out := SignaturesResponse{Count: len(entries)}
	for _, e := range entries {
		out.Signatures = append(out.Signatures, SignatureEntry{
			Problem:  e.Problem,
			Workload: e.Workload,
			Node:     e.IP,
			Tuple:    e.Tuple.String(),
		})
	}
	sort.Slice(out.Signatures, func(a, b int) bool {
		x, y := out.Signatures[a], out.Signatures[b]
		if x.Workload != y.Workload {
			return x.Workload < y.Workload
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Problem != y.Problem {
			return x.Problem < y.Problem
		}
		return x.Tuple < y.Tuple
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSignaturesPost(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req SignatureRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Workload == "" || req.Node == "" || req.Problem == "" {
		s.fail(w, http.StatusBadRequest, "workload, node and problem are required")
		return
	}
	if req.Samples != nil {
		if err := validateSamples(req.Samples); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	ctx := core.Context{Workload: req.Workload, IP: req.Node}
	st := s.stream(ctx)
	type sigResult struct {
		entry signature.Entry
		added bool
		err   error
	}
	done := make(chan sigResult, 1)
	samples := req.Samples
	err := s.sched.enqueue(st.queue, func() {
		tr, err := s.traceFor(st, samples)
		if err != nil {
			done <- sigResult{err: err}
			return
		}
		entry, added, err := s.sys.BuildSignatureEntry(ctx, req.Problem, tr)
		done <- sigResult{entry: entry, added: added, err: err}
	})
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.ctr.diagnoseShed.Add(1)
			s.shed(w, "signature")
			return
		}
		s.fail(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	// Labelling is rare and must confirm durability-in-memory, so the
	// handler waits for the queued task (still admission-controlled above).
	res := <-done
	if res.err != nil {
		s.fail(w, statusFor(res.err), "building signature: %v", res.err)
		return
	}
	// Idempotent storage: re-labelling a known (context, fingerprint) is
	// acknowledged without inflating the base — or the gossip log. Only a
	// genuinely new signature replicates to the fleet.
	status, code := "stored", http.StatusCreated
	if res.added {
		s.ctr.signaturesPost.Add(1)
		if s.fleet != nil {
			s.fleet.Record(req.Workload, req.Node, req.Problem, res.entry.Tuple.String())
		}
	} else {
		status, code = "duplicate", http.StatusOK
	}
	writeJSON(w, code, map[string]string{
		"status":   status,
		"problem":  req.Problem,
		"workload": req.Workload,
		"node":     req.Node,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	nstreams := len(s.streams)
	s.mu.RUnlock()
	cache := s.sys.AssocCacheStats()
	hitRate := 0.0
	if lookups := cache.Hits + cache.Misses; lookups > 0 {
		hitRate = float64(cache.Hits) / float64(lookups)
	}
	sparse := s.sys.SparseStats()
	sigScanned, sigEarly := s.sys.SignatureScanStats()
	sigEarlyRate := 0.0
	if sigScanned > 0 {
		sigEarlyRate = float64(sigEarly) / float64(sigScanned)
	}
	sigIdx := s.sys.SignatureIndexStats()
	lc := s.sys.LifecycleStats()
	cross := s.sys.CrossStats()
	var fleetStats *fleet.Stats
	if s.fleet != nil {
		fs := s.fleet.Stats()
		fleetStats = &fs
	}
	h := &s.ctr.diagnoseLatency
	writeJSON(w, http.StatusOK, Stats{
		UptimeSec:     time.Since(s.start).Seconds(),
		Streams:       nstreams,
		Profiles:      len(s.sys.Profiles()),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.sched.depth.Load(),
		QueueCapacity: s.cfg.QueueCap,

		IngestBatches: s.ctr.ingestBatches.Load(),
		IngestSamples: s.ctr.ingestSamples.Load(),
		IngestShed:    s.ctr.ingestShed.Load(),
		DiagnoseShed:  s.ctr.diagnoseShed.Load(),
		BadRequests:   s.ctr.badRequests.Load(),

		DetectTasks: s.ctr.detectTasks.Load(),
		Alerts:      s.ctr.alerts.Load(),

		ReportsPending: s.ctr.reportsPending.Load(),
		ReportsDone:    s.ctr.reportsDone.Load(),
		ReportsFailed:  s.ctr.reportsFailed.Load(),
		SignaturesPost: s.ctr.signaturesPost.Load(),

		AssocCacheHits:    cache.Hits,
		AssocCacheMisses:  cache.Misses,
		AssocCacheEntries: cache.Entries,
		AssocCacheHitRate: hitRate,

		SparseScreenedPairs: sparse.Screened,
		SparseExactPairs:    sparse.Exact,
		SparseSkippedPairs:  sparse.Skipped,

		SigScanEntries:       sigScanned,
		SigScanEarlyExits:    sigEarly,
		SigScanEarlyExitRate: sigEarlyRate,

		SigIndexScopes:      sigIdx.Scopes,
		SigIndexBuckets:     sigIdx.Buckets,
		SigIndexEntries:     sigIdx.Indexed,
		SigIndexZeroEntries: sigIdx.ZeroEntries,
		SigIndexQueries:     sigIdx.IndexQueries,
		SigIndexScanQueries: sigIdx.ScanQueries,
		SigIndexCandidates:  sigIdx.Candidates,
		SigIndexHitRate:     sigIdx.HitRate(),

		LifecycleEnabled:  lc.Enabled,
		ModelGeneration:   lc.Generation,
		LifecycleEdges:    lc.Edges,
		QuarantinedEdges:  lc.Quarantined,
		ShadowAge:         lc.ShadowAge,
		LifecycleObserved: lc.Observed,
		Promotions:        lc.Promotions,
		Rollbacks:         lc.Rollbacks,

		CrossProfiles:   cross.Profiles,
		CrossEdges:      cross.Edges,
		CrossQuarantine: cross.Quarantined,
		CrossSignatures: cross.Signatures,

		DiagnoseForwarded: s.ctr.diagnoseForwarded.Load(),
		Fleet:             fleetStats,

		DiagnoseLatency: LatencySummary{
			Count:  h.total.Load(),
			MeanMS: h.meanMS(),
			P50MS:  h.quantile(0.50),
			P95MS:  h.quantile(0.95),
			P99MS:  h.quantile(0.99),
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Health{Status: status, UptimeSec: time.Since(s.start).Seconds()})
}
