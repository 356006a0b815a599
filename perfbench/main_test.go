package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// small returns every workload of BENCHMARK.json at a size that runs in
// well under a second.
func small(t *testing.T) map[string]workload {
	return map[string]workload{
		"fi-monitored": &liveWorkload{impl: "atomic-fi", gen: "default", clients: 2, ops: 2000, stride: 512},
		"reg-wal-record": &liveWorkload{impl: "mutex-reg", gen: "rw:50", clients: 2, ops: 500, stride: 80,
			walDir: t.TempDir(), recordOnly: true},
		"serve-fi": &serveWorkload{impl: "atomic-fi", clients: 2, ops: 500, stride: 512},
		"paradox":  paradoxWorkload{workers: 2},
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// printed lists, per workload, the figures its "#" lines must carry besides
// the JSON line: workload-specific end-to-end figures on the plain run and
// layer timings on the traced run.
var printed = map[string][]string{
	"fi-monitored": {"e2e error_rate", "layer live.apply_ns_p50", "layer live.merge_lag_us_p99",
		"layer check.window_us_p50", "layer check.checked_lag_us_p99"},
	"reg-wal-record": {"e2e error_rate", "e2e recover_s", "layer live.apply_ns_p50", "layer wal.append_ns_p50",
		"layer wal.close_ms"},
	"serve-fi": {"e2e error_rate", "e2e rtt_p50_us", "e2e rtt_p99_us", "layer server.apply_ns_p50",
		"layer server.codec_ns_per_op", "layer check.window_us_p50"},
	"paradox": {"e2e error_rate", "e2e paradox_ms", "layer stabilize.transform_ms", "layer stabilize.refute_ms",
		"layer explore.certify_ms"},
}

// hasLine reports whether out has a line "# kind name value unit".
func hasLine(out, kind, name string) bool {
	unit := ""
	for _, d := range slices.Concat(workloadE2E, layerTimes, perLayer) {
		if d.name == name {
			unit = d.unit
		}
	}
	re := regexp.MustCompile(`(?m)^# ` + kind + ` ` + regexp.QuoteMeta(name) + ` \S+ ` + regexp.QuoteMeta(unit) + `$`)
	return unit != "" && re.MatchString(out)
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := small(t)
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(ws))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want, traceDir := bf.EndToEnd, ""
			if traced {
				want, traceDir = bf.PerLayer, t.TempDir()
			}
			var out strings.Builder
			res, err := run(w.Name, ws[w.Name], 1, 0, traceDir, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w.Name, traced, res.Correct, res.Attempted)
			}
			if res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v", w.Name, m.Name, got.Value)
				}
			}
			for _, line := range printed[w.Name] {
				kind, name, _ := strings.Cut(line, " ")
				if (kind == "layer") != traced {
					continue
				}
				if !hasLine(out.String(), kind, name) {
					t.Errorf("%s traced=%v: no %q line with its unit", w.Name, traced, line)
				}
			}
		}
	}
}

func TestJunkObjectTripsGate(t *testing.T) {
	if err := junkControl(); err != nil {
		t.Fatal(err)
	}
	// Monitored, the monitor catches it; record-only, the commit-order check
	// must, since junk-fi replays byte-identically.
	for _, recordOnly := range []bool{false, true} {
		w := &liveWorkload{impl: "junk-fi:40", gen: "default", clients: 2, ops: 2000, stride: 512, recordOnly: recordOnly}
		res, err := run("fi-monitored", w, 1, 0, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("recordOnly=%v: junk-fi in place of atomic-fi passed the correctness gate", recordOnly)
		}
	}
}

func TestBudgetAbortIsFailureNotIncorrect(t *testing.T) {
	w := &liveWorkload{impl: "mutex-reg", gen: "rw:50", clients: 2, ops: 500, stride: 80,
		walDir: t.TempDir(), budget: 1}
	for _, traced := range []bool{false, true} {
		traceDir := ""
		if traced {
			traceDir = t.TempDir()
		}
		res, err := run("reg-rw-wal", w, 1, 0, traceDir, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("traced=%v: a run the checker abandoned was reported as an incorrect output", traced)
		}
		if res.Attempted == 0 || res.Failed != res.Attempted {
			t.Errorf("traced=%v: failed %d of %d ops, want every op failed", traced, res.Failed, res.Attempted)
		}
		if traced && res.Metrics["check.budget_aborts"].Value < 1 {
			t.Errorf("check.budget_aborts = %v, want at least 1", res.Metrics["check.budget_aborts"].Value)
		}
	}
}
