package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// ramp returns 1..n as float64.
func ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		want     float64 // percentile asked for
		pct      float64 // percentile used
		value    float64
		beyondAt int // samples strictly beyond the value
	}{
		{n: 1000, want: 99, pct: 99, value: 990, beyondAt: 10},
		{n: 400, want: 99, pct: 97.5, value: 390, beyondAt: 10},
		{n: 100, want: 90, pct: 90, value: 90, beyondAt: 10},
		{n: 99, want: 90, pct: 89.8, value: 89, beyondAt: 10},
		{n: 15, want: 99, pct: 50, value: 8, beyondAt: 7},
	}
	for _, c := range cases {
		got := tailPercentile(ramp(c.n), c.want)
		if got.Pct != c.pct || got.Value != c.value || got.N != c.n {
			t.Errorf("n=%d p%g: got p%g=%g (n=%d), want p%g=%g", c.n, c.want, got.Pct, got.Value, got.N, c.pct, c.value)
		}
		if beyond := c.n - int(got.Value); beyond != c.beyondAt {
			t.Errorf("n=%d: %d samples beyond, want %d", c.n, beyond, c.beyondAt)
		}
	}
	if got := tailPercentile(nil, 99); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q := quartiles(ramp(10)); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", q)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q := quartiles([]float64{2, 1}); q != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles(1,2) = %v", q)
	}
}

func TestSteadyPercentileIgnoresOneStalledStretch(t *testing.T) {
	var s series
	for i := 0; i < 2000; i++ {
		v := time.Millisecond
		if i%5 == 0 {
			v = 2 * time.Millisecond // the steady tail
		}
		if i >= 1000 && i < 1300 {
			v = 50 * time.Millisecond // one stalled stretch
		}
		// Recorded out of time order, as merged connections are.
		s.add(time.Duration(1999-i)*time.Millisecond, v)
	}
	whole := tailPercentile(s.msValues(), 90)
	steady := s.steadyPercentile(90)
	if whole.Value != 50 {
		t.Fatalf("whole-run p90 = %g, want the stall (50)", whole.Value)
	}
	if steady.Value != 2 || steady.N != 2000 || steady.Pct != 90 {
		t.Errorf("steady p90 = %+v, want 2 ms over 2000 samples", steady)
	}
}

// fakeClock is a virtual clock: sleeping jumps to the wake time, and the
// work of a request advances it explicitly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(_ context.Context, t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueAndCountsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	events := periodic(kindVerdict, 100, 0, time.Second) // every 10 ms
	// Request 2 stalls for 35 ms; every other request takes 4 ms.
	timings := openLoop(context.Background(), clk, start, 60*time.Millisecond, events, func(i int, ev event) {
		if i == 2 {
			clk.now = clk.now.Add(35 * time.Millisecond)
		} else {
			clk.now = clk.now.Add(4 * time.Millisecond)
		}
	})
	want := []timing{
		{due: 0, late: 0, latency: 4 * time.Millisecond},
		{due: 10 * time.Millisecond, late: 0, latency: 4 * time.Millisecond},
		{due: 20 * time.Millisecond, late: 0, latency: 35 * time.Millisecond},
		// Due at 30 ms but sent at 55 ms, when the stall ended: its
		// latency counts the 25 ms it waited behind the stall.
		{due: 30 * time.Millisecond, late: 25 * time.Millisecond, latency: 29 * time.Millisecond},
		// Due at 40 ms, sent at 59 ms; the clock then passes the 60 ms
		// horizon, so the event due at 50 ms is never sent.
		{due: 40 * time.Millisecond, late: 19 * time.Millisecond, latency: 23 * time.Millisecond},
	}
	if len(timings) != len(want) {
		t.Fatalf("%d events sent, want %d: %+v", len(timings), len(want), timings)
	}
	for i := range want {
		if timings[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, timings[i], want[i])
		}
	}
}

func TestMergeSchedulesOrdersByDue(t *testing.T) {
	a := periodic(kindVerdict, 10, 0, 300*time.Millisecond)                // 0, 100, 200
	b := periodic(kindLabel, 4, 50*time.Millisecond, 600*time.Millisecond) // 50, 300, 550
	got := mergeSchedules(a, b)
	wantDue := []time.Duration{0, 50, 100, 200, 300, 550}
	if len(got) != len(wantDue) {
		t.Fatalf("merged %d events, want %d", len(got), len(wantDue))
	}
	for i, ev := range got {
		if ev.due != wantDue[i]*time.Millisecond {
			t.Errorf("event %d due %v, want %v", i, ev.due, wantDue[i]*time.Millisecond)
		}
	}
	if got[1].kind != kindLabel || got[1].seq != 0 || got[4].seq != 1 {
		t.Errorf("kinds/seqs not kept: %+v", got)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past op
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "other", Start: 0, End: 7 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 50 * ms, // 100 - [10,50] - [90,100]
		2: 20 * ms,
		3: 20 * ms, // 30 - 10 of b.inner
		4: 30 * ms,
		5: 10 * ms,
		6: 7 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestPrefixOfReference(t *testing.T) {
	ref := []rankedCause{{"cpu-hog", 0.9}, {"mem-hog", 0.7}, {"disk-hog", 0.5}, {"net-drop", 0.3}, {"suspend", 0.2}}
	cases := []struct {
		name string
		got  []rankedCause
		ok   bool
	}{
		{"identical", ref, true},
		{"label inserted on top", []rankedCause{{"label-3", 0.95}, {"cpu-hog", 0.9}, {"mem-hog", 0.7}, {"disk-hog", 0.5}, {"net-drop", 0.3}}, true},
		{"labels inserted between", []rankedCause{{"cpu-hog", 0.9}, {"label-1", 0.8}, {"mem-hog", 0.7}, {"label-2", 0.6}, {"disk-hog", 0.5}}, true},
		{"known causes reordered", []rankedCause{{"mem-hog", 0.7}, {"cpu-hog", 0.9}, {"disk-hog", 0.5}, {"net-drop", 0.3}, {"suspend", 0.2}}, false},
		{"score changed", []rankedCause{{"cpu-hog", 0.9}, {"mem-hog", 0.71}, {"disk-hog", 0.5}, {"net-drop", 0.3}, {"suspend", 0.2}}, false},
		{"known cause skipped", []rankedCause{{"cpu-hog", 0.9}, {"label-1", 0.8}, {"disk-hog", 0.5}}, false},
		{"known cause dropped without a label", ref[:4], false},
		{"unknown problem", []rankedCause{{"cpu-hog", 0.9}, {"mem-hog", 0.7}, {"disk-hog", 0.5}, {"net-drop", 0.3}, {"xskew", 0.25}}, false},
	}
	for _, c := range cases {
		err := prefixOfReference(c.got, ref, isLabelProblem)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}
