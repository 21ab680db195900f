package main

import (
	"fmt"
	"sort"

	"invarnetx/internal/core"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// Every input the daemon sees is generated here from the workload seed:
// training traces, signature windows, alert windows and telemetry batches.

const (
	// faultTicks is the paper's 5-minute fault window at 10 s ticks; the
	// diagnose workloads run the daemon with this window length.
	faultTicks = 30
	// batchTicks is one minute of 10 s ticks: the telemetry batch size.
	batchTicks = 6
)

// window is one labelled fault window of the simulator corpus.
type window struct {
	ctx     core.Context
	stream  int // load stream that owns the context
	fault   string
	samples []server.Sample
	trace   *metrics.Trace
}

// corpus is the paper-faithful simulator input of the diagnose workloads:
// per context the normal training runs, the investigated fault windows that
// build the signature base, and held-out fault windows for the traffic.
type corpus struct {
	contexts []core.Context
	cpis     map[core.Context][][]float64
	invWins  map[core.Context][]*metrics.Trace
	sigWins  []window
	heldOut  []window
}

// corpusWorkloads are the contexts' workload types: one batch job and the
// interactive TPC-DS session, as in the paper's evaluation.
var corpusWorkloads = []workload.Type{workload.Wordcount, workload.TPCDS}

// buildCorpus simulates clusters independent heterogeneous 4-slave clusters
// (seeds derived from seed) and runs on each TrainRuns normal runs per
// workload, SignatureRuns investigated runs per fault and node, and heldOut
// further runs per fault whose target rotates over the slaves. Cluster k's
// contexts carry the workload name suffixed with "-c<k>".
//
// The cost of a diagnosis follows the size of the context's trained
// invariant set, which varies from one simulated cluster to the next; a run
// averages over several clusters so that its figures describe the program
// rather than one draw of the simulator.
func buildCorpus(seed int64, clusters, heldOut int) (*corpus, error) {
	c := &corpus{
		cpis:    map[core.Context][][]float64{},
		invWins: map[core.Context][]*metrics.Trace{},
	}
	for k := 0; k < clusters; k++ {
		opts := experiments.DefaultOptions()
		opts.Seed = seed*int64(clusters) + int64(k)
		opts.RotateTargets = true
		r := experiments.NewRunner(opts)
		opts = r.Options()
		for s, w := range corpusWorkloads {
			name := fmt.Sprintf("%s-c%d", w, k)
			for i := 0; i < opts.TrainRuns; i++ {
				res, err := r.Run(w, "", i)
				if err != nil {
					return nil, fmt.Errorf("training run %d: %w", i, err)
				}
				for ip, tr := range res.Traces {
					ctx := core.Context{Workload: name, IP: ip}
					c.cpis[ctx] = append(c.cpis[ctx], tr.CPI)
					// Invariants train on windows of the diagnosis length
					// at the fault offset, as experiments.Runner.TrainSystem
					// does.
					win, err := experiments.AbnormalWindow(tr, opts.FaultStart, opts.FaultTicks)
					if err != nil {
						return nil, err
					}
					c.invWins[ctx] = append(c.invWins[ctx], win)
				}
			}
			for _, kind := range experiments.FaultKindsFor(w) {
				for node := 0; node < opts.Slaves; node++ {
					for i := 0; i < opts.SignatureRuns; i++ {
						win, err := faultWindow(r, w, name, s, kind, 100000+i*opts.Slaves+node)
						if err != nil {
							return nil, err
						}
						c.sigWins = append(c.sigWins, win)
					}
				}
				for i := 0; i < heldOut; i++ {
					win, err := faultWindow(r, w, name, s, kind, i)
					if err != nil {
						return nil, err
					}
					c.heldOut = append(c.heldOut, win)
				}
			}
		}
	}
	for ctx := range c.cpis {
		c.contexts = append(c.contexts, ctx)
	}
	sortContexts(c.contexts)
	return c, nil
}

// faultWindow runs one injected run and cuts the true fault window from the
// target node's trace; the window belongs to context (name, target node) and
// to load stream s.
func faultWindow(r *experiments.Runner, w workload.Type, name string, s int, kind faults.Kind, idx int) (window, error) {
	res, err := r.Run(w, kind, idx)
	if err != nil {
		return window{}, err
	}
	tr, err := experiments.AbnormalWindow(res.TargetTrace(), res.Window.Start, faultTicks)
	if err != nil {
		return window{}, err
	}
	return window{
		ctx:     core.Context{Workload: name, IP: res.TargetIP},
		stream:  s,
		fault:   string(kind),
		samples: traceSamples(tr),
		trace:   tr,
	}, nil
}

// traceSamples converts a clean trace to wire samples.
func traceSamples(tr *metrics.Trace) []server.Sample {
	out := make([]server.Sample, tr.Len())
	for t := range out {
		row := make([]float64, len(tr.Rows))
		for m := range row {
			row[m] = tr.Rows[m][t]
		}
		out[t] = server.Sample{Metrics: row, CPI: tr.CPI[t]}
	}
	return out
}

func sortContexts(cs []core.Context) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].Workload != cs[b].Workload {
			return cs[a].Workload < cs[b].Workload
		}
		return cs[a].IP < cs[b].IP
	})
}

// synthStreams are telemetry-only contexts (ingest traffic that is never
// diagnosed): each has CPI training runs and a pool of batches that the
// generator cycles through.
type synthStreams struct {
	contexts []core.Context
	cpis     map[core.Context][][]float64
	batches  map[core.Context][][]server.Sample
}

// One batch in burstEvery carries a CPI burst of burstCPI times the normal
// reading, so the drift monitors alert and the alert oracle has something to
// count.
const (
	burstEvery = 16
	burstCPI   = 1.8
)

// buildSynthStreams generates n telemetry contexts named under prefix, with
// pool batches of batchTicks samples each: the load generator's coupled
// synthetic telemetry, where CPI follows the latent factor the leading
// metrics share.
func buildSynthStreams(seed int64, prefix string, n, pool int) *synthStreams {
	rng := stats.NewRNG(seed)
	cfg := client.LoadConfig{}
	s := &synthStreams{
		cpis:    map[core.Context][][]float64{},
		batches: map[core.Context][][]server.Sample{},
	}
	for i := 0; i < n; i++ {
		ctx := core.Context{Workload: prefix, IP: fmt.Sprintf("10.9.%d.%d", i/250, i%250+2)}
		s.contexts = append(s.contexts, ctx)
		for r := 0; r < 6; r++ {
			run := client.SynthBatch(rng.Fork(int64(i*1000+r)), cfg, 100)
			cpi := make([]float64, len(run))
			for t, smp := range run {
				cpi[t] = smp.CPI
			}
			s.cpis[ctx] = append(s.cpis[ctx], cpi)
		}
		all := client.SynthBatch(rng.Fork(int64(i*1000+999)), cfg, pool*batchTicks)
		for b := 0; b < pool; b++ {
			batch := all[b*batchTicks : (b+1)*batchTicks]
			if b%burstEvery == burstEvery/2 {
				// A minute of degraded CPI: enough consecutive anomalous
				// samples for the monitor to alert.
				for t := range batch {
					batch[t].CPI *= burstCPI
				}
			}
			s.batches[ctx] = append(s.batches[ctx], batch)
		}
	}
	return s
}

// batch returns the k-th batch the generator sends to ctx.
func (s *synthStreams) batch(ctx core.Context, k int) []server.Sample {
	pool := s.batches[ctx]
	return pool[k%len(pool)]
}

// sentSequences lists, per context, the batches acknowledged for it, in
// sending order: mine[w] are the contexts connection w owns and sent[w][i]
// how many batches it had acknowledged for mine[w][i].
func (s *synthStreams) sentSequences(mine [][]core.Context, sent [][]int) map[core.Context][][]server.Sample {
	seqs := map[core.Context][][]server.Sample{}
	for w := range mine {
		for i, ctx := range mine[w] {
			for k := 0; k < sent[w][i]; k++ {
				seqs[ctx] = append(seqs[ctx], s.batch(ctx, k))
			}
		}
	}
	return seqs
}

// historyCopies derives the triage workload's labelled history: for every
// context, copies of its real fault signatures with a few violation bits
// flipped, labels kept, until the context holds perContext entries. The
// copies are distinct from each other and from the originals, so the merge
// path stores every one.
func historyCopies(seed int64, real []signature.Entry, perContext int) []signature.Entry {
	rng := stats.NewRNG(seed ^ 0x5eed)
	byCtx := map[core.Context][]signature.Entry{}
	var ctxs []core.Context
	for _, e := range real {
		ctx := core.Context{Workload: e.Workload, IP: e.IP}
		if _, ok := byCtx[ctx]; !ok {
			ctxs = append(ctxs, ctx)
		}
		byCtx[ctx] = append(byCtx[ctx], e)
	}
	sortContexts(ctxs)
	var out []signature.Entry
	for _, ctx := range ctxs {
		base := byCtx[ctx]
		seen := map[uint64]bool{}
		for _, e := range base {
			seen[e.Fingerprint()] = true
		}
		for added := len(base); added < perContext; {
			src := base[rng.Intn(len(base))]
			t := append(signature.Tuple(nil), src.Tuple...)
			flips := 1 + rng.Intn(3)
			for f := 0; f < flips && len(t) > 0; f++ {
				k := rng.Intn(len(t))
				t[k] = !t[k]
			}
			e := signature.Entry{Tuple: t, Problem: src.Problem, IP: src.IP, Workload: src.Workload}
			if fp := e.Fingerprint(); !seen[fp] {
				seen[fp] = true
				out = append(out, e)
				added++
			}
		}
	}
	return out
}
