package main

import (
	"fmt"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/core/counter"
	"github.com/elin-go/elin/internal/core/stabilize"
	"github.com/elin-go/elin/internal/explore"
	"github.com/elin-go/elin/internal/sim"
	"github.com/elin-go/elin/internal/spec"
)

// paradoxWorkload is the Proposition 18 pipeline of experiment E11, one
// trial per pipeline: the stable-configuration construction turns the
// eventually linearizable warmup counter into A′, exhaustive exploration
// certifies A′ linearizable to depth 24, and the same construction fails
// on the sloppy counter, which is not eventually linearizable. The
// pipeline has no random input, so the seed changes nothing.
type paradoxWorkload struct {
	workers int // exploration workers
}

func (w paradoxWorkload) warmup() workload { return w }

func (w paradoxWorkload) trial(_ int64, log *spanLog, n int) (trial, error) {
	var base time.Time
	if log != nil {
		base = log.base
	}
	rt0 := readRuntime()
	t0 := time.Now()
	out, rep, err := stabilize.Transform(counter.Warmup{Threshold: 2}, stabilize.Config{
		NumProcs: 2, OpsPerProc: 4, SearchDepth: 8, VerifyDepth: 16, Workers: w.workers,
	})
	if err != nil {
		return trial{}, fmt.Errorf("paradox: warmup counter: %w", err)
	}
	t1 := time.Now()
	root, err := sim.NewSystem(out, sim.UniformWorkload(2, 2, spec.MakeOp(spec.MethodFetchInc)), nil, check.Options{}, false)
	if err != nil {
		return trial{}, err
	}
	t2 := time.Now()
	linOK, _, st, err := explore.LinearizableEverywhere(root, 24, explore.Config{Workers: w.workers}, check.Options{})
	if err != nil {
		return trial{}, err
	}
	t3 := time.Now()
	_, _, sloppyErr := stabilize.Transform(counter.Sloppy{}, stabilize.Config{
		NumProcs: 2, OpsPerProc: 3, SearchDepth: 5, VerifyDepth: 12, Workers: w.workers,
	})
	t4 := time.Now()
	rt1 := readRuntime()

	// The certification root is the pipeline's set-up; the rest is its run.
	t := trial{
		units: 1,
		setup: t2.Sub(t1),
		run:   t4.Sub(t0) - t2.Sub(t1),
		alloc: rt1.allocBytes - rt0.allocBytes,
		extra: map[string]float64{"paradox_ms": float64(t4.Sub(t0).Nanoseconds()) / 1e6},
	}
	if rep.StableDepth != 3 || rep.StableT != 2 || rep.V0 != 2 || !linOK || sloppyErr == nil {
		t.wrong = fmt.Errorf("paradox: got stable depth %d, t=%d, v0=%d, A' linearizable %v, sloppy refuted %v; want 3, 2, 2, true, true",
			rep.StableDepth, rep.StableT, rep.V0, linOK, sloppyErr != nil)
		return t, nil
	}
	if log != nil {
		for _, s := range []struct {
			name   string
			t0, t1 time.Time
		}{
			{"trial", t0, t4},
			{"stabilize.transform", t0, t1},
			{"sim.root", t1, t2},
			{"explore.certify", t2, t3},
			{"stabilize.refute", t3, t4},
		} {
			log.add(n, s.name, int64(s.t0.Sub(base)), int64(s.t1.Sub(base)))
		}
		certify := t3.Sub(t2)
		t.layers = map[string]float64{
			"stabilize.transform_ms":   float64(t1.Sub(t0).Nanoseconds()) / 1e6,
			"stabilize.nodes_searched": float64(rep.NodesSearched),
			"stabilize.refute_ms":      float64(t4.Sub(t3).Nanoseconds()) / 1e6,
			"explore.certify_ms":       float64(certify.Nanoseconds()) / 1e6,
			"explore.nodes":            float64(st.Nodes),
			"explore.leaves":           float64(st.Leaves),
			"explore.nodes_per_s":      float64(st.Nodes) / certify.Seconds(),
			"runtime.gc_cpu_frac":      gcFrac(rt0, rt1),
		}
	}
	return t, nil
}
