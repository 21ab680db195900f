package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
)

// A run performs the program's set-up at least minSetupReps times, and
// repeats it until setupBudget has been spent (at most maxSetupReps times):
// setup_s is the median, and the last daemon booted serves the measured
// phase. Cheap set-ups repeat more, which keeps the median of a set-up that
// takes milliseconds as steady as that of one that takes seconds.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

// opts are the command's arguments, shared by every workload.
type opts struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	daemonBin string
	workdir   string
	rateScale float64
}

// tally is what the load generator observed in the measured phase. Each
// connection fills its own and they are merged afterwards.
type tally struct {
	attempted int64
	transport int64 // transport errors and unexpected statuses
	shed      int64 // 429 / TCP shed
	mismatch  int64 // outputs that differ from the in-process reference

	batches, verdicts, labels int64 // completed operations
	samples                   int64 // samples acknowledged

	ack      series          // per ingest batch
	depth    []float64       // QueueDepth in HTTP ingest acks
	verdict  series          // from due time to verdict
	taskMS   []float64       // server-side task time of each verdict
	waitMS   []float64       // verdict latency minus task time
	label    series          // from due time to label ack
	late     []time.Duration // open-loop sends behind schedule
	top1Hits int64

	firstErr error
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.transport += o.transport
	t.shed += o.shed
	t.mismatch += o.mismatch
	t.batches += o.batches
	t.verdicts += o.verdicts
	t.labels += o.labels
	t.samples += o.samples
	t.ack.merge(o.ack)
	t.depth = append(t.depth, o.depth...)
	t.verdict.merge(o.verdict)
	t.taskMS = append(t.taskMS, o.taskMS...)
	t.waitMS = append(t.waitMS, o.waitMS...)
	t.label.merge(o.label)
	t.late = append(t.late, o.late...)
	t.top1Hits += o.top1Hits
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// fail records a failed operation: a shed refusal or a transport error.
func (t *tally) fail(err error) {
	if client.IsShed(err) {
		t.shed++
	} else {
		t.transport++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// mismatchf records an output that differs from the reference.
func (t *tally) mismatchf(format string, args ...any) {
	t.mismatch++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("oracle: "+format, args...)
	}
}

// errors is every failed operation: transport, shed and mismatch.
func (t *tally) errors() int64 { return t.transport + t.shed + t.mismatch }

// setupTimes is one set-up of the program, split by layer.
type setupTimes struct {
	train, save, boot time.Duration
}

func (s setupTimes) total() time.Duration { return s.train + s.save + s.boot }

// setupRuns performs the program's set-up repeatedly: train a fresh
// core.System (train), persist it (save) and boot invarnetd from the store
// until /healthz is ready (boot). Every daemon but the last is stopped; the
// last one and its store directory are returned.
func setupRuns(o opts, name string, window int, tcp bool, train func(sys *core.System, rep int) (time.Duration, error)) (*daemon, string, []setupTimes, error) {
	var times []setupTimes
	var d *daemon
	var dir string
	spent := time.Duration(0)
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || spent < setupBudget); rep++ {
		if d != nil {
			d.stop()
			d = nil
			removeAll(dir)
		}
		dir = filepath.Join(o.workdir, fmt.Sprintf("store-%s-%d", name, rep))
		os.RemoveAll(dir)
		sys := core.New(core.DefaultConfig())
		trainT, err := train(sys, rep)
		if err != nil {
			return nil, "", nil, fmt.Errorf("set-up %d: training: %w", rep, err)
		}
		t0 := time.Now()
		if err := sys.SaveTo(dir); err != nil {
			return nil, "", nil, fmt.Errorf("set-up %d: persisting: %w", rep, err)
		}
		saveT := time.Since(t0)
		// A boot that fails (another process took the reserved port between
		// its release and the daemon's bind) is retried; only the
		// successful boot is timed.
		for attempt := 0; ; attempt++ {
			t0 = time.Now()
			d, err = startDaemon(o.daemonBin, dir, filepath.Join(o.workdir, "invarnetd-"+name+".log"), window, tcp)
			if err == nil {
				break
			}
			if attempt == 2 {
				removeAll(dir)
				return nil, "", nil, fmt.Errorf("set-up %d: booting invarnetd: %w", rep, err)
			}
		}
		times = append(times, setupTimes{train: trainT, save: saveT, boot: time.Since(t0)})
		spent += times[rep].total()
	}
	return d, dir, times, nil
}

// loadReference restores the in-process reference system from the store the
// daemon booted from, timing the restore.
func loadReference(dir string) (*core.System, time.Duration, error) {
	ref := core.New(core.DefaultConfig())
	t0 := time.Now()
	rep, err := ref.LoadFrom(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("restoring reference: %w", err)
	}
	if rep.Partial() {
		return nil, 0, fmt.Errorf("reference restore was partial: %v", rep)
	}
	return ref, time.Since(t0), nil
}

// statsDelta is the change of the daemon's counters over the measured phase.
type statsDelta struct {
	before, after *server.Stats
}

func (s statsDelta) d(f func(*server.Stats) int64) int64 { return f(s.after) - f(s.before) }

// waitApplied polls /v1/stats until every batch accepted since before has
// been applied (detectTasks caught up, queue empty) and returns the final
// counters. Diagnose and label tasks ride the same queues, so an empty
// queue also means they are done.
func waitApplied(c *client.Client, before *server.Stats, accepted int64) (*server.Stats, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := c.Stats(ctx)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("polling /v1/stats: %w", err)
		}
		if st.DetectTasks-before.DetectTasks >= accepted && st.QueueDepth == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon did not apply %d accepted batches (applied %d, queue %d)",
				accepted, st.DetectTasks-before.DetectTasks, st.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// getStats fetches /v1/stats once.
func getStats(c *client.Client) (*server.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Stats(ctx)
}

// replayAlerts replays each context's CPI sequence, in the order the daemon
// applied it, through a monitor built from the reference model exactly as
// the serving layer builds one, and returns the total alert count.
func replayAlerts(ref *core.System, seqs map[core.Context][][]server.Sample) (int64, error) {
	var alerts int64
	for ctx, batches := range seqs {
		mon, err := ref.NewMonitor(ctx, nil)
		if err != nil {
			return 0, err
		}
		mon.DisableLog = true
		for _, b := range batches {
			for _, s := range b {
				mon.Offer(s.CPI)
				if mon.Alert() {
					alerts++
					mon.Reset()
				}
			}
		}
	}
	return alerts, nil
}
