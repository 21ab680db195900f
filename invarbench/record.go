package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one named measurement of a run. N is the number of samples the
// value rests on; Pct, when set, is the percentile actually read (see
// tailPercentile).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Pct   float64 `json:"pct,omitempty"`
	// NA marks a metric whose layer the workload never exercises: it is
	// printed as n/a and kept out of the result line.
	NA bool `json:"na,omitempty"`
}

// metricSet collects a run's metrics in insertion order.
type metricSet struct {
	list []metric
}

func (s *metricSet) add(name, unit string, v float64, n int) {
	s.list = append(s.list, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (s *metricSet) addTail(name, unit string, t tail) {
	s.list = append(s.list, metric{Name: name, Unit: unit, Value: t.Value, N: t.N, Pct: t.Pct})
}

// na records a layer metric the workload does not exercise.
func (s *metricSet) na(name, unit string) {
	s.list = append(s.list, metric{Name: name, Unit: unit, NA: true})
}

func (s *metricSet) get(name string) (metric, bool) {
	for _, m := range s.list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one human-readable line per metric.
func (s *metricSet) print(w io.Writer, prefix string) {
	for _, m := range s.list {
		switch {
		case m.NA:
			fmt.Fprintf(w, "%s%-32s %14s %-9s (layer idle on this workload)\n", prefix, m.Name, "n/a", m.Unit)
		case m.Pct > 0:
			fmt.Fprintf(w, "%s%-32s %14.6g %-9s n=%d p%g\n", prefix, m.Name, m.Value, m.Unit, m.N, m.Pct)
		default:
			fmt.Fprintf(w, "%s%-32s %14.6g %-9s n=%d\n", prefix, m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// fingerprint identifies the machine and toolchain a run was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// commitID names the source the run measured: the git commit when the
// checkout is a repository, "unknown" otherwise.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runRecord is one ledger line: everything needed to compare this run with
// any other.
type runRecord struct {
	Commit    string      `json:"commit"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     bool        `json:"trace"`
	Machine   fingerprint `json:"machine"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Metrics   []metric    `json:"metrics"`
}

// appendLedger appends rec as one JSON line to path.
func appendLedger(path string, rec runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening ledger: %w", err)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return fmt.Errorf("encoding ledger record: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing ledger: %w", err)
	}
	return f.Close()
}

// readLedger loads every record of a ledger file.
func readLedger(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// summarize prints, per (workload, traced) group of the ledger, the median,
// quartiles and relative spread ((q3-q1)/median) of every metric, and the
// tracing overhead: the traced median against the untraced one for each
// end-to-end metric both kinds of run carry.
func summarize(w io.Writer, recs []runRecord) {
	type key struct {
		workload string
		trace    bool
	}
	groups := map[key][]runRecord{}
	var keys []key
	for _, r := range recs {
		k := key{r.Workload, r.Trace}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return !keys[a].trace && keys[b].trace
	})
	medians := map[key]map[string]float64{}
	for _, k := range keys {
		runs := groups[k]
		seeds := map[int64]bool{}
		commits := map[string]bool{}
		failed := int64(0)
		for _, r := range runs {
			seeds[r.Seed] = true
			commits[r.Commit] = true
			failed += r.Failed
		}
		fmt.Fprintf(w, "== %s trace=%v: %d runs, %d seeds, commits %v, failed ops %d\n",
			k.workload, k.trace, len(runs), len(seeds), keysOf(commits), failed)
		fmt.Fprintf(w, "   %-32s %-9s %12s %12s %12s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "runs")
		values := map[string][]float64{}
		units := map[string]string{}
		var names []string
		for _, r := range runs {
			for _, m := range r.Metrics {
				if m.NA || math.IsNaN(m.Value) {
					continue
				}
				if _, ok := values[m.Name]; !ok {
					names = append(names, m.Name)
				}
				values[m.Name] = append(values[m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
		medians[k] = map[string]float64{}
		for _, name := range names {
			vs := values[name]
			med := median(append([]float64(nil), vs...))
			medians[k][name] = med
			if len(vs) < 2 {
				fmt.Fprintf(w, "   %-32s %-9s %12.6g %12s %12s %8s %6d\n", name, units[name], med, "-", "-", "-", len(vs))
				continue
			}
			q := quartiles(vs)
			spread := math.NaN()
			if med != 0 {
				spread = (q[2] - q[0]) / math.Abs(med)
			}
			fmt.Fprintf(w, "   %-32s %-9s %12.6g %12.6g %12.6g %8.4f %6d\n", name, units[name], med, q[0], q[2], spread, len(vs))
		}
	}
	for _, k := range keys {
		if !k.trace {
			continue
		}
		base, ok := medians[key{k.workload, false}]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "== tracing overhead on %s (traced median vs untraced median)\n", k.workload)
		for _, e := range endToEnd {
			t, okT := medians[k][e.name]
			u, okU := base[e.name]
			if !okT || !okU || u == 0 {
				continue
			}
			fmt.Fprintf(w, "   %-32s %12.6g vs %12.6g  (%+.1f%%)\n", e.name, t, u, 100*(t-u)/u)
		}
	}
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
