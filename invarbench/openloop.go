package main

import (
	"context"
	"time"
)

// clock is the open-loop generator's time source; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	SleepUntil(ctx context.Context, t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
	case <-tm.C:
	}
}

// event is one scheduled request of an open-loop stream: due is its send
// time relative to the start of the measured phase.
type event struct {
	due  time.Duration
	kind int
	seq  int // index of the event among those of its kind on this stream
}

// timing is what the generator knows about one sent event: when it was due,
// how late it was sent, and its latency measured from the due time, which
// charges the wait a stall imposes on every later request to those requests.
type timing struct {
	due, late, latency time.Duration
}

// openLoop sends events on their schedule from one connection: each event
// waits for its due time, or goes at once when the previous reply came back
// late. It stops at the first event due at or after horizon, when the clock
// passes horizon (a generator that fell behind sends no more), or when ctx
// ends. do performs event i; the caller records its outcome by index.
func openLoop(ctx context.Context, clk clock, start time.Time, horizon time.Duration, events []event, do func(i int, ev event)) []timing {
	out := make([]timing, 0, len(events))
	for i, ev := range events {
		if ev.due >= horizon || clk.Now().Sub(start) >= horizon || ctx.Err() != nil {
			break
		}
		due := start.Add(ev.due)
		clk.SleepUntil(ctx, due)
		sent := clk.Now()
		do(i, ev)
		done := clk.Now()
		out = append(out, timing{due: ev.due, late: sent.Sub(due), latency: done.Sub(due)})
	}
	return out
}

// periodic builds the schedule of one request kind at rate per second from
// offset, up to horizon.
func periodic(kind int, rate float64, offset, horizon time.Duration) []event {
	if rate <= 0 {
		return nil
	}
	step := time.Duration(float64(time.Second) / rate)
	var out []event
	for k, t := 0, offset; t < horizon; k, t = k+1, t+step {
		out = append(out, event{due: t, kind: kind, seq: k})
	}
	return out
}

// mergeSchedules interleaves schedules by due time (stable for equal times).
func mergeSchedules(scheds ...[]event) []event {
	var out []event
	idx := make([]int, len(scheds))
	for {
		best := -1
		for s, sch := range scheds {
			if idx[s] < len(sch) && (best < 0 || sch[idx[s]].due < scheds[best][idx[best]].due) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, scheds[best][idx[best]])
		idx[best]++
	}
}
