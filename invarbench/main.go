// Command invarbench is the end-to-end benchmark of invarnetd. One run:
//
//  1. generates the workload's inputs from --seed (simulator traces, fault
//     windows, synthetic telemetry);
//  2. performs the program's set-up several times — training, persisting the
//     model store, booting invarnetd from it as a separate process until
//     /healthz answers — and keeps the last daemon;
//  3. drives the workload for --seconds from this process over at most two
//     connections in flight;
//  4. checks every output against an in-process reference restored from the
//     same store;
//  5. prints every metric with its unit and sample count, appends a run
//     record to the ledger, and ends with one JSON result line.
//
// With --trace 1 the load generator records a span around every client call
// and the run's operations are then replayed in-process through each layer's
// public functions; the result line then carries the per-layer metrics.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash invarbench/run.sh --workload diagnose-cold --seed 1 --seconds 10 --trace 0
//	bash invarbench/run.sh summary [ledger.jsonl ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(opts, *tracer) (*outcome, error){
	"ingest-firehose": runFirehose,
	"diagnose-cold":   runDiagnoseCold,
	"triage-mixed":    runTriageMixed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "summary" {
		os.Exit(summaryCmd(os.Args[2:]))
	}
	var o opts
	var traceFlag int
	var ledger string
	fs := flag.NewFlagSet("invarbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: ingest-firehose, diagnose-cold or triage-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.daemonBin, "daemon", "", "invarnetd binary")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for model stores, logs, spans and the ledger")
	fs.StringVar(&ledger, "ledger", "", "run ledger to append to (default <workdir>/ledger.jsonl)")
	fs.Float64Var(&o.rateScale, "rate-scale", 1, "multiply every open-loop rate (capacity probing; 1 for recorded runs)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.daemonBin == "" || o.seconds < 1 || o.rateScale <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "invarbench: need --workload (ingest-firehose|diagnose-cold|triage-mixed), --daemon, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if ledger == "" {
		ledger = filepath.Join(o.workdir, "ledger.jsonl")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "invarbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(benchmark(o, run, ledger))
}

// benchmark runs one workload and prints the result; it returns the exit
// code.
func benchmark(o opts, run func(opts, *tracer) (*outcome, error), ledger string) int {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Printf("invarbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	out, err := run(o, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invarbench: %s: %v\n", o.workload, err)
		return 1
	}
	e2e := out.endToEndMetrics()
	layer := out.layerMetrics(o.trace)
	if o.trace {
		spans := tr.snapshot()
		if v, n := loadgenSelf(spans); n > 0 {
			layer.add("loadgen.self_us", "us", v, n)
		} else {
			layer.na("loadgen.self_us", "us")
		}
		// One file per workload, replaced by each traced run.
		path := filepath.Join(o.workdir, "spans-"+o.workload+".tsv")
		if err := tr.writeTSV(path); err != nil {
			fmt.Fprintf(os.Stderr, "invarbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	fmt.Println("end-to-end:")
	e2e.print(os.Stdout, "  ")
	fmt.Println("per-layer:")
	layer.print(os.Stdout, "  ")
	correct := out.mismatch == 0
	if out.firstErr != nil {
		fmt.Printf("first failure: %v\n", out.firstErr)
	}
	fmt.Printf("operations: attempted=%d failed=%d (transport=%d shed=%d mismatch=%d)\n",
		out.attempted, out.errors(), out.transport, out.shed, out.mismatch)

	rec := runRecord{
		Commit: commitID(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Machine: machineFingerprint(), Correct: correct, Attempted: out.attempted, Failed: out.errors(),
		Metrics: append(append([]metric(nil), e2e.list...), layer.list...),
	}
	if err := appendLedger(ledger, rec); err != nil {
		fmt.Fprintf(os.Stderr, "invarbench: %v\n", err)
		return 1
	}

	declared, from := endToEnd, e2e
	if o.trace {
		declared, from = perLayer, layer
	}
	result := map[string]any{}
	for _, d := range declared {
		m, ok := from.get(d.name)
		if !ok || m.NA || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "invarbench: declared metric %s has no value\n", d.name)
			return 1
		}
		result[d.name] = map[string]any{"value": m.Value, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": out.attempted,
		"failed":    out.errors(),
		"metrics":   result,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "invarbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// summaryCmd prints the spread summary of one or more ledgers.
func summaryCmd(paths []string) int {
	if len(paths) == 0 {
		paths = []string{filepath.Join(".bench_build", "ledger.jsonl")}
	}
	var recs []runRecord
	for _, p := range paths {
		r, err := readLedger(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "invarbench: %v\n", err)
			return 1
		}
		recs = append(recs, r...)
	}
	summarize(os.Stdout, recs)
	return 0
}

// removeAll deletes a scratch directory, reporting (not failing on) errors.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "invarbench: removing %s: %v\n", dir, err)
	}
}
