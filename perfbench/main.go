// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time as a series of trials, checks every trial's
// output, and prints its metrics: human-readable lines starting with "#",
// then one JSON line with the fields correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 it alternates plain and traced trials and prints the per-layer
// split and the tracing overhead instead. See README.md.
//
//	perfbench -workload fi-monitored -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// trial runs one measured unit with the given seed. A non-nil log
	// makes it a traced trial numbered n: the pipeline is rebuilt from
	// public seams and its spans go to log.
	trial(seed int64, log *spanLog, n int) (trial, error)
	// warmup returns the smaller copy run once, untimed, before the trials.
	warmup() workload
}

// trial is the outcome of one trial.
type trial struct {
	units   int64         // operations (pipelines, for paradox) attempted
	aborted bool          // the checker gave up (ErrBudget): no verdict, every unit failed
	wrong   error         // an output failed the correctness gate
	setup   time.Duration // trial start to the first operation
	run     time.Duration // first operation to the verdict
	alloc   float64       // heap bytes allocated from trial start to the verdict
	extra   map[string]float64
	layers  map[string]float64 // per-layer figures the trial measured
}

// workDir holds the benchmark's build, WAL files and traces, relative to
// the checkout it runs in.
const workDir = ".bench_build"

func workloads() map[string]workload {
	return map[string]workload{
		"fi-monitored": &liveWorkload{impl: "atomic-fi", gen: "default", clients: 2, ops: 500_000, stride: 512},
		// Stride 80 is what `elin stress` picks for a register at 2 clients.
		"reg-rw-wal": &liveWorkload{impl: "mutex-reg", gen: "rw:50", clients: 2, ops: 250_000, stride: 80,
			walDir: filepath.Join(workDir, "wal")},
		// reg-rw-wal with the monitor off: the same object, load and WAL,
		// without the generic-engine search that can abandon a window.
		"reg-wal-record": &liveWorkload{impl: "mutex-reg", gen: "rw:50", clients: 2, ops: 250_000, stride: 80,
			walDir: filepath.Join(workDir, "wal"), recordOnly: true},
		"serve-fi": &serveWorkload{impl: "atomic-fi", clients: 2, ops: 30_000, stride: 512},
		"paradox":  paradoxWorkload{workers: 2},
	}
}

var workloadOrder = []string{"fi-monitored", "reg-rw-wal", "reg-wal-record", "serve-fi", "paradox"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload measures with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_bytes_per_op", "B"},
}

// workloadE2E are end-to-end figures only some workloads have, plus the
// error rate, which the JSON line carries as failed and attempted. They are
// printed for people but are not in the JSON line, whose metrics must be
// the same, and never 0, for every workload.
var workloadE2E = []metricDef{
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"recover_s", "s"},
	{"paradox_ms", "ms"},
	{"error_rate", "frac"},
}

// perLayer are the metrics of a traced run's JSON line: counts, shares,
// sizes and rates, so that a layer the workload does not use can honestly
// read 0 on every run.
var perLayer = []metricDef{
	{"check.busy_frac", "frac"},
	{"check.windows", "count"},
	{"check.window_ops_mean", "ops"},
	{"check.budget_aborts", "count"},
	{"check.mint_max", "count"},
	{"wal.bytes_per_op", "B"},
	{"server.read_calls_per_op", "count"},
	{"server.write_calls_per_op", "count"},
	{"server.bytes_per_op", "B"},
	{"server.check_busy_frac", "frac"},
	{"server.mon_skipped", "count"},
	{"loadgen.retries", "count"},
	{"loadgen.reconnects", "count"},
	{"stabilize.nodes_searched", "count"},
	{"explore.nodes", "count"},
	{"explore.leaves", "count"},
	{"explore.nodes_per_s", "1/s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// layerTimes are the per-layer timings. They are printed for the layers the
// workload uses but are not in the JSON line: a timing that reads 0 on every
// run of a workload would look like a value that was not measured.
var layerTimes = []metricDef{
	{"live.apply_ns_p50", "ns"},
	{"live.merge_lag_us_p50", "us"},
	{"live.merge_lag_us_p99", "us"},
	{"check.window_us_p50", "us"},
	{"check.window_us_p99", "us"},
	{"check.checked_lag_us_p50", "us"},
	{"check.checked_lag_us_p99", "us"},
	{"wal.append_ns_p50", "ns"},
	{"wal.close_ms", "ms"},
	{"server.apply_ns_p50", "ns"},
	{"server.codec_ns_per_op", "ns"},
	{"stabilize.transform_ms", "ms"},
	{"stabilize.refute_ms", "ms"},
	{"explore.certify_ms", "ms"},
}

// summedLayers add up over the trials instead of taking the median.
var summedLayers = map[string]bool{
	"check.budget_aborts": true, "server.mon_skipped": true,
	"loadgen.retries": true, "loadgen.reconnects": true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// trialSeed derives the seed of trial i from the run seed, so the same
// seed gives the same inputs.
func trialSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// run measures w for the given time and returns its result, printing the
// human-readable lines to out. A non-empty traceDir makes it a traced run
// that writes its spans there.
func run(name string, w workload, seed int64, seconds float64, traceDir string, out io.Writer) (*result, error) {
	traced := traceDir != ""
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintf(out, "# gate failed: %v\n", err)
	}
	if err := junkControl(); err != nil {
		fail(err)
	} else {
		fmt.Fprintln(out, "# junk control: violation caught in window [64,128) with MinT 62")
	}
	warm, err := w.warmup().trial(trialSeed(seed, 999), nil, -1)
	if err != nil {
		return nil, err
	}
	if warm.wrong != nil {
		fail(warm.wrong)
	}

	var log *spanLog
	if traced {
		log = &spanLog{base: time.Now()}
	}
	var plain, tracedTrials []trial
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		var tl *spanLog
		if traced && i%2 == 1 {
			tl = log
		}
		// Start every trial from the same heap: the previous trial's garbage
		// collected and its memory returned to the OS, as in a fresh process.
		debug.FreeOSMemory()
		t0 := time.Now()
		t, err := w.trial(trialSeed(seed, i), tl, i)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t0))
		res.Attempted += t.units
		if t.aborted {
			res.Failed += t.units
		}
		if t.wrong != nil {
			fail(t.wrong)
		}
		if tl != nil {
			tracedTrials = append(tracedTrials, t)
		} else {
			plain = append(plain, t)
		}
		// Stop before a trial that would overrun the measuring time; a
		// traced run needs at least one trial of each kind.
		if time.Since(start)+longest > time.Duration(seconds*float64(time.Second)) && (!traced || i >= 1) {
			break
		}
	}

	e2e := summarize(plain)
	fmt.Fprintf(out, "# workload %s seed %d: %d trials, %d of %d ops failed\n",
		name, seed, len(plain)+len(tracedTrials), res.Failed, res.Attempted)
	e2e["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	for _, d := range slices.Concat(endToEnd, workloadE2E) {
		if v, ok := e2e[d.name]; ok {
			fmt.Fprintf(out, "# e2e %s %.6g %s\n", d.name, v, d.unit)
		}
	}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
	} else {
		plainRate, tracedRate := e2e["ops_per_s"], summarize(tracedTrials)["ops_per_s"]
		layers := aggregateLayers(append(plain, tracedTrials...))
		if plainRate > 0 && tracedRate > 0 {
			layers["trace.overhead_frac"] = 1 - tracedRate/plainRate
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
		}
		for _, d := range slices.Concat(perLayer, layerTimes) {
			if v, ok := layers[d.name]; ok {
				fmt.Fprintf(out, "# layer %s %.6g %s\n", d.name, v, d.unit)
			}
		}
		fmt.Fprintf(out, "# untraced ops_per_s %.6g, traced ops_per_s %.6g\n", plainRate, tracedRate)
		if len(log.spans) > 0 {
			path, err := log.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "# spans: %s\n", path)
		}
	}
	return res, nil
}

// summarize takes the medians over trials: the rate and allocation of the
// trials that reached a verdict, the set-up time of all of them, and each
// workload-specific figure.
func summarize(ts []trial) map[string]float64 {
	vals := map[string][]float64{}
	for _, t := range ts {
		vals["setup_s"] = append(vals["setup_s"], t.setup.Seconds())
		if t.aborted || t.wrong != nil || t.run <= 0 {
			continue
		}
		vals["ops_per_s"] = append(vals["ops_per_s"], float64(t.units)/t.run.Seconds())
		vals["alloc_bytes_per_op"] = append(vals["alloc_bytes_per_op"], t.alloc/float64(t.units))
		for k, v := range t.extra {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{"ops_per_s": 0, "alloc_bytes_per_op": 0}
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// aggregateLayers combines the per-layer figures of a traced run's trials:
// the median of each over the trials that reached a verdict and measured
// it, except counts of events that must not happen, which add up, and
// check.mint_max, the largest. Every trial the checker abandoned counts in
// check.budget_aborts.
func aggregateLayers(ts []trial) map[string]float64 {
	vals := map[string][]float64{}
	out := map[string]float64{}
	for _, t := range ts {
		if t.aborted {
			out["check.budget_aborts"]++
			continue
		}
		for k, v := range t.layers {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		switch {
		case summedLayers[k]:
			for _, v := range vs {
				out[k] += v
			}
		case k == "check.mint_max":
			for _, v := range vs {
				out[k] = max(out[k], v)
			}
		default:
			out[k] = median(vs)
		}
	}
	return out
}

// fingerprint describes the machine and build a result came from.
func fingerprint() string {
	fp := map[string]any{
		"cpu":        "unknown",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"revision":   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["revision"] = s.Value
			case "vcs.modified":
				fp["modified"] = s.Value == "true"
			}
		}
	}
	b, _ := json.Marshal(fp) // a map of strings, ints and bools always encodes
	return string(b)
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time per workload, in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()

	ws := workloads()
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if ws[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(filepath.Join(workDir, "wal"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# fingerprint %s\n", fingerprint())
	for _, n := range names {
		traceDir := ""
		if *traceFlag == 1 {
			traceDir = filepath.Join(workDir, "trace")
		}
		res, err := run(n, ws[n], *seed, *seconds, traceDir, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}
