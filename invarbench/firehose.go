package main

import (
	"fmt"
	"sync"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
)

// ingest-firehose: per-node telemetry, the daemon's steady traffic. A closed
// loop over firehoseConns raw-TCP frame connections sends batchTicks-sample
// batches round-robin over firehoseContexts contexts; every context has a
// CPI model, so every sample passes through the drift monitor, and none has
// invariants or signatures, so MIC scoring and retrieval stay idle.
const (
	firehoseContexts = 32
	firehoseConns    = 2
	firehosePool     = 64 // distinct batches per context, cycled
	// firehoseWindow is the daemon's default per-stream window.
	firehoseWindow = server.DefaultWindowCap
	// firehoseReplayBatches bounds the traced in-process replay per context:
	// the per-call cost is steady once the window is full.
	firehoseReplayBatches = 400
)

func runFirehose(o opts, tr *tracer) (*outcome, error) {
	streams := buildSynthStreams(o.seed, "firehose", firehoseContexts, firehosePool)
	train := func(sys *core.System, _ int) (time.Duration, error) {
		t0 := time.Now()
		for _, ctx := range streams.contexts {
			if err := sys.TrainPerformanceModel(ctx, streams.cpis[ctx]); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	d, dir, setups, err := setupRuns(o, "firehose", 0, true, train)
	if err != nil {
		return nil, err
	}
	defer func() { d.stop(); removeAll(dir) }()
	ref, loadT, err := loadReference(dir)
	if err != nil {
		return nil, err
	}

	c := client.New("http://"+d.addr, nil)
	before, err := getStats(c)
	if err != nil {
		return nil, err
	}
	u0, err := d.usage()
	if err != nil {
		return nil, err
	}

	// sent[w][i] counts the batches connection w had accepted for its i-th
	// context; each context belongs to one connection, so its batches are
	// applied in the order they were sent.
	tallies := make([]*tally, firehoseConns)
	sent := make([][]int, firehoseConns)
	var mine [firehoseConns][]core.Context
	for i, ctx := range streams.contexts {
		mine[i%firehoseConns] = append(mine[i%firehoseConns], ctx)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < firehoseConns; w++ {
		tallies[w] = &tally{}
		sent[w] = make([]int, len(mine[w]))
		fc, err := client.DialIngest(d.tcpAddr)
		if err != nil {
			return nil, fmt.Errorf("dialing ingest-tcp: %w", err)
		}
		wg.Add(1)
		go func(w int, fc *client.FrameConn) {
			defer wg.Done()
			defer fc.Close()
			t, ctxs, counts := tallies[w], mine[w], sent[w]
			for j := 0; time.Now().Before(deadline); j++ {
				i := j % len(ctxs)
				ctx := ctxs[i]
				b := streams.batch(ctx, counts[i])
				t.attempted++
				op := int64(w)<<40 | int64(j)
				_, end := tr.begin("client.FrameConn.Send", 0, op)
				t0 := time.Now()
				n, err := fc.Send(ctx.Workload, ctx.IP, b)
				lat := time.Since(t0)
				end()
				if err != nil {
					t.fail(err)
					if !client.IsShed(err) {
						return // the connection is spent
					}
					continue
				}
				counts[i]++
				t.batches++
				t.samples += int64(n)
				t.ack.add(t0.Sub(start), lat)
			}
		}(w, fc)
	}
	wg.Wait()
	all := &tally{}
	for _, t := range tallies {
		all.merge(t)
	}
	after, err := waitApplied(c, before, all.batches)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	u1, err := d.usage()
	if err != nil {
		return nil, err
	}

	// Oracle: every acknowledged sample and batch counted, and the alert
	// count equal to an in-process monitor replay.
	delta := statsDelta{before, after}
	seqs := streams.sentSequences(mine[:], sent)
	checkIngestCounters(all, delta, ref, seqs)

	out := &outcome{tally: all, setups: setups, loadRef: loadT, delta: delta,
		elapsed: elapsed, cpu: u1.cpu - u0.cpu, hwmKB: u1.hwmKB}
	if tr != nil {
		if err := replayFirehose(out, tr, ref, seqs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayFirehose runs the first batches of every context in-process through
// the layers the daemon's ingest task calls: mic.Slider.AppendBatch on every
// metric column, then detect.Monitor.Offer on every CPI sample.
func replayFirehose(out *outcome, tr *tracer, ref *core.System, seqs map[core.Context][][]server.Sample) error {
	st := &replayState{
		ref:      ref,
		sliders:  map[core.Context][]*mic.Slider{},
		monitors: map[core.Context]*detect.Monitor{},
		window:   firehoseWindow,
	}
	var op int64
	for _, ctx := range sortedContexts(seqs) {
		for k, b := range seqs[ctx] {
			if k == firehoseReplayBatches {
				break
			}
			op++
			root, end := tr.begin("replay.ingest", 0, op)
			err := st.replayIngest(out, tr, op, root, ctx, b, false)
			end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func newSliders(capacity int) []*mic.Slider {
	out := make([]*mic.Slider, metrics.Count)
	for i := range out {
		out[i] = mic.NewSlider(capacity, mic.DefaultConfig())
	}
	return out
}

// columns turns clean wire samples into the per-metric columns the serving
// layer keeps.
func columns(b []server.Sample) ([][]float64, [][]bool) {
	cols := make([][]float64, metrics.Count)
	valid := make([][]bool, metrics.Count)
	for m := range cols {
		cols[m] = make([]float64, len(b))
		valid[m] = make([]bool, len(b))
		for i, s := range b {
			cols[m][i] = s.Metrics[m]
			valid[m][i] = true
		}
	}
	return cols, valid
}

func sortedContexts[V any](m map[core.Context]V) []core.Context {
	out := make([]core.Context, 0, len(m))
	for ctx := range m {
		out = append(out, ctx)
	}
	sortContexts(out)
	return out
}
