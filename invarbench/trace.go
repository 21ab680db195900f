package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs pay no tracing cost.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns the function that closes it, or a no-op
// on a nil tracer. The span's ID is returned so children can name it.
func (t *tracer) begin(name string, parent, op int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.origin)
	t.mu.Lock()
	id = int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// record adds a span measured elsewhere (start and end on the tracer clock).
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTSV writes every span as one tab-separated line under a header
// naming the columns; times are nanoseconds since the tracer's origin.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Op, s.Name, int64(s.Start), int64(s.End))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once,
// and a child's time outside its parent is ignored).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if curEnd < 0 || lo > curEnd {
				if curEnd > curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > curStart {
			covered += curEnd - curStart
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}
