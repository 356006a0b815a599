package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// liveWorkload is a run of the live engine, built from the same registry,
// monitor and WAL calls `elin stress` makes: closed-loop clients hammer one
// shared object while the full monitor checks every window at tolerance 0,
// or, record-only, while the runtime only records the history.
type liveWorkload struct {
	impl, gen    string // registry object and workload names
	clients, ops int    // ops is per client
	stride       int    // monitor window, in events
	// recordOnly runs monitor spec none (`elin stress -monitor none`). The
	// gate then checks, besides the replay, that the commit order is a legal
	// sequential run of the object's specification.
	recordOnly bool
	// walDir, when set, is where the run writes its WAL (interval:4096),
	// which wal.Recover reads back after the verdict.
	walDir string
	// budget overrides check.Options.Budget; zero keeps the checker's
	// default, which every workload uses. Tests set it to force ErrBudget.
	budget int64
}

func (w *liveWorkload) warmup() workload {
	c := *w
	c.ops = max(w.ops/10, 1)
	return &c
}

// firstOp records when the first operation of a trial was generated: the
// generator is called right before each operation is applied.
type firstOp struct {
	base time.Time
	at   atomic.Int64
}

func (f *firstOp) wrap(gen live.OpGen) live.OpGen {
	return func(c, i int, r *rand.Rand) spec.Op {
		if i == 0 {
			f.at.CompareAndSwap(0, int64(time.Since(f.base)))
		}
		return gen(c, i, r)
	}
}

func (w *liveWorkload) trial(seed int64, log *spanLog, n int) (trial, error) {
	units := int64(w.clients * w.ops)
	start := time.Now()
	rt0 := readRuntime()
	opts := check.Options{Budget: w.budget}
	pol, err := registry.Policy(scenario.DefaultPolicy)
	if err != nil {
		return trial{}, err
	}
	obj, err := registry.LiveObject(w.impl, w.clients, pol, seed, opts)
	if err != nil {
		return trial{}, err
	}
	gen, err := registry.OpGenByName(w.gen, obj.Spec())
	if err != nil {
		return trial{}, err
	}
	first := &firstOp{base: start}
	mcfg := check.IncrementalConfig{Stride: w.stride, Opts: opts}
	mspec := check.MonitorSpec{Kind: check.MonitorFull}
	if w.recordOnly {
		mspec.Kind = check.MonitorNone
	}
	cfg := live.Config{
		Object:      obj,
		Clients:     w.clients,
		Ops:         w.ops,
		Gen:         first.wrap(gen),
		Seed:        seed,
		Monitor:     mcfg,
		MonitorSpec: mspec,
	}
	var walPath string
	if w.walDir != "" {
		pol, err := wal.ParseSyncPolicy("interval:4096")
		if err != nil {
			return trial{}, err
		}
		walPath = filepath.Join(w.walDir, fmt.Sprintf("trial-%d.wal", seed))
		defer os.Remove(walPath)
		walLog, err := wal.Create(walPath, wal.Header{
			Object: w.impl, ObjName: obj.Name(), Procs: w.clients, Ops: w.ops,
			Workload: w.gen, Policy: scenario.DefaultPolicy, Seed: seed,
		}, pol)
		if err != nil {
			return trial{}, err
		}
		cfg.Sink = walLog
	}
	var tr *tracer
	if log != nil {
		mon, err := check.NewMonitor(cfg.MonitorSpec, obj.Spec(), mcfg)
		if err != nil {
			return trial{}, err
		}
		tr = newTracer(log, n, w.clients, w.ops, cfg.Sink, mon)
		cfg.Object = tr.object(obj)
		cfg.MonitorSpec = check.MonitorSpec{Kind: check.MonitorNone}
		cfg.Sink = tr
	}

	res, err := live.Run(cfg)
	end := time.Now()
	rt1 := readRuntime()
	t := trial{units: units, setup: time.Duration(first.at.Load()), alloc: rt1.allocBytes - rt0.allocBytes}
	t.run = end.Sub(start) - t.setup
	if log != nil {
		log.add(n, "trial", int64(start.Sub(log.base)), int64(end.Sub(log.base)))
	}
	switch {
	case errors.Is(err, check.ErrBudget):
		// The checker abandoned a window: the run has no verdict, so every
		// operation in it failed. It is not retried.
		t.aborted = true
		return t, nil
	case errors.Is(err, errViolation):
		t.wrong = err
		return t, nil
	case err != nil:
		return trial{}, err
	}

	// Correctness gate, outside the timed region.
	if res.Violation != nil {
		t.wrong = fmt.Errorf("%s: monitor violation %s", w.impl, res.Violation)
		return t, nil
	}
	if int64(res.Ops) != units {
		t.wrong = fmt.Errorf("%s: %d of %d operations completed", w.impl, res.Ops, units)
		return t, nil
	}
	same, err := live.Verify(obj, res.History)
	if err != nil {
		return trial{}, err
	}
	if !same {
		t.wrong = fmt.Errorf("%s: replay is not byte-identical", w.impl)
		return t, nil
	}
	if w.recordOnly {
		if err := commitOrderLegal(obj.Spec(), res.History); err != nil {
			t.wrong = fmt.Errorf("%s: %w", w.impl, err)
			return t, nil
		}
	}
	t.extra = map[string]float64{}
	if walPath != "" {
		r0 := time.Now()
		rec, err := wal.Recover(walPath)
		if err != nil {
			return trial{}, err
		}
		t.extra["recover_s"] = time.Since(r0).Seconds()
		rh, err := history.FromEvents(rec.Events)
		if err != nil {
			t.wrong = fmt.Errorf("recovered WAL is not a history: %w", err)
			return t, nil
		}
		if rec.Torn || string(rh.AppendFingerprint(nil)) != string(res.History.AppendFingerprint(nil)) {
			t.wrong = fmt.Errorf("recovered WAL history differs from the run's history (torn=%v)", rec.Torn)
			return t, nil
		}
		if tr != nil {
			fi, err := os.Stat(walPath)
			if err != nil {
				return trial{}, err
			}
			t.layers = map[string]float64{"wal.bytes_per_op": float64(fi.Size()) / float64(units)}
		}
	}
	if tr != nil {
		m := tr.layers(int64(t.run), "live")
		for k, v := range t.layers {
			m[k] = v
		}
		m["runtime.gc_cpu_frac"] = gcFrac(rt0, rt1)
		t.layers = m
	}
	return t, nil
}

// commitOrderLegal reports an error unless the responses of h, in the order
// they appear (the commit order, in a live history), are a legal sequential
// run of obj from its initial state. It is the linear-time check that stands
// in for the monitor on a record-only run.
func commitOrderLegal(obj spec.Object, h *history.History) error {
	state := obj.Init
	pending := map[int]spec.Op{}
	for i := 0; i < h.Len(); i++ {
		e := h.Event(i)
		if e.Kind == history.KindInvoke {
			pending[e.Proc] = e.Op
			continue
		}
		op := pending[e.Proc]
		delete(pending, e.Proc)
		legal := false
		for _, o := range obj.Type.Step(state, op) {
			if o.Resp == e.Resp {
				state, legal = o.Next, true
				break
			}
		}
		if !legal {
			return fmt.Errorf("event %d: %s returned %d, which the commit order does not allow", i, op, e.Resp)
		}
	}
	return nil
}

// junkControl is the negative control: a fetch&inc that loses every
// increment past 40, run by the deterministic serial driver, must be caught
// in window [64,128) with MinT 62. A monitor that stopped checking would
// pass it and fail the gate instead of looking fast.
func junkControl() error {
	obj, err := registry.LiveObject("junk-fi:40", 2, nil, 1, check.Options{})
	if err != nil {
		return err
	}
	res, err := live.Run(live.Config{
		Object:      obj,
		Clients:     2,
		Ops:         10000,
		Seed:        1,
		Serial:      true,
		Monitor:     check.IncrementalConfig{Stride: 64},
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorFull},
	})
	if err != nil {
		return fmt.Errorf("junk control: %w", err)
	}
	v := res.Violation
	if v == nil || v.Start != 64 || v.End != 128 || v.MinT != 62 {
		return fmt.Errorf("junk control: want violation in window [64,128) with MinT 62, got %v", v)
	}
	return nil
}
