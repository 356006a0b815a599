package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/loadgen"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/scenario"
	"github.com/elin-go/elin/internal/server"
	"github.com/elin-go/elin/internal/spec"
)

// serveWorkload is `elin load -self`: the object behind the framed-TCP
// server on a loopback port, the server-side full monitor, and a fleet of
// closed-loop connections from package loadgen.
type serveWorkload struct {
	impl         string
	clients, ops int // ops is per connection
	stride       int
}

func (w *serveWorkload) warmup() workload {
	c := *w
	c.ops = max(w.ops/10, 1)
	return &c
}

func (w *serveWorkload) trial(seed int64, log *spanLog, n int) (trial, error) {
	units := int64(w.clients * w.ops)
	start := time.Now()
	rt0 := readRuntime()
	pol, err := registry.Policy(scenario.DefaultPolicy)
	if err != nil {
		return trial{}, err
	}
	obj, err := registry.LiveObject(w.impl, w.clients, pol, seed, check.Options{})
	if err != nil {
		return trial{}, err
	}
	gen, err := registry.OpGenByName(scenario.DefaultWorkload, obj.Spec())
	if err != nil {
		return trial{}, err
	}
	first := &firstOp{base: start}
	mcfg := check.IncrementalConfig{Stride: w.stride}
	cfg := server.Config{
		Object:      obj,
		Clients:     w.clients,
		Seed:        seed,
		Monitor:     mcfg,
		MonitorSpec: check.MonitorSpec{Kind: check.MonitorFull},
	}
	var tr *tracer
	if log != nil {
		mon, err := check.NewMonitor(cfg.MonitorSpec, obj.Spec(), mcfg)
		if err != nil {
			return trial{}, err
		}
		tr = newTracer(log, n, w.clients, w.ops, nil, mon)
		cfg.Object = tr.object(obj)
		cfg.MonitorSpec = check.MonitorSpec{Kind: check.MonitorNone}
		cfg.Sink = tr
	}
	srv, err := server.New(cfg)
	if err != nil {
		return trial{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return trial{}, fmt.Errorf("serve: %w", err)
	}
	var counted *countingListener
	if tr != nil {
		counted = &countingListener{Listener: ln}
		ln = counted
	}
	srv.Serve(ln)
	res, lerr := loadgen.Run(loadgen.Config{
		Addr:    ln.Addr().String(),
		Clients: w.clients,
		Ops:     w.ops,
		Gen:     first.wrap(gen),
		Seed:    seed,
	})
	sum, serr := srv.Shutdown()
	end := time.Now()
	rt1 := readRuntime()
	t := trial{units: units, setup: time.Duration(first.at.Load()), alloc: rt1.allocBytes - rt0.allocBytes}
	t.run = end.Sub(start) - t.setup
	if log != nil {
		log.add(n, "trial", int64(start.Sub(log.base)), int64(end.Sub(log.base)))
	}
	switch {
	case errors.Is(serr, check.ErrBudget):
		t.aborted = true
		return t, nil
	case errors.Is(serr, errViolation):
		t.wrong = serr
		return t, nil
	case serr != nil:
		return trial{}, serr
	case lerr != nil:
		t.wrong = fmt.Errorf("serve: fleet failed: %w", lerr)
		return t, nil
	}

	// Correctness gate, outside the timed region.
	// Only the server's own monitor can degrade to sampling; a traced
	// trial's benchmark-owned monitor never does, and its server has none.
	skipped := sum.MonSkipped
	switch {
	case sum.Violation != nil:
		t.wrong = fmt.Errorf("serve: monitor violation %s", sum.Violation)
	case res.Lost != 0 || res.Duplicated != 0 || int64(res.Completed) != units:
		t.wrong = fmt.Errorf("serve: exactly-once broken: %d lost, %d duplicated, %d of %d completed",
			res.Lost, res.Duplicated, res.Completed, units)
	case skipped != 0:
		t.wrong = fmt.Errorf("serve: full monitor skipped %d windows", skipped)
	}
	if t.wrong != nil {
		return t, nil
	}
	same, err := live.Verify(obj, sum.History)
	if err != nil {
		return trial{}, err
	}
	if !same {
		t.wrong = fmt.Errorf("serve: replay is not byte-identical")
		return t, nil
	}
	t.extra = map[string]float64{
		"rtt_p50_us": float64(res.P50NS) / 1e3,
		"rtt_p99_us": float64(res.P99NS) / 1e3,
	}
	t.layers = map[string]float64{"server.mon_skipped": float64(skipped)}
	if tr != nil {
		m := tr.layers(int64(t.run), "server")
		m["server.check_busy_frac"] = m["check.busy_frac"]
		m["server.read_calls_per_op"] = float64(counted.reads.Load()) / float64(units)
		m["server.write_calls_per_op"] = float64(counted.writes.Load()) / float64(units)
		m["server.bytes_per_op"] = float64(counted.bytes.Load()) / float64(units)
		codec, err := codecNSPerOp(gen, seed, w.clients, w.ops)
		if err != nil {
			t.wrong = err
			return t, nil
		}
		m["server.codec_ns_per_op"] = codec
		m["loadgen.retries"] = float64(res.Retries)
		m["loadgen.reconnects"] = float64(res.Reconnects)
		m["runtime.gc_cpu_frac"] = gcFrac(rt0, rt1)
		t.layers = m
	}
	return t, nil
}

// codecNSPerOp times the wire codec on the workload's operations: each
// operation's request and response are encoded and decoded once, as a
// round trip puts them through the proto functions.
func codecNSPerOp(gen live.OpGen, seed int64, clients, ops int) (float64, error) {
	stream := make([]spec.Op, 0, clients*ops)
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(seed + int64(c)))
		for i := 0; i < ops; i++ {
			stream = append(stream, gen(c, i, r))
		}
	}
	var buf []byte
	start := time.Now()
	for i, op := range stream {
		buf = server.AppendRequest(buf[:0], server.Request{OpIndex: uint64(i), Op: op})
		req, err := server.DecodeRequest(buf)
		if err != nil {
			return 0, err
		}
		buf = server.AppendResponse(buf[:0], server.Response{OpIndex: req.OpIndex, Resp: int64(i), Ticket: uint64(i + 1)})
		resp, err := server.DecodeResponse(buf)
		if err != nil {
			return 0, err
		}
		if req.Op != op || resp.OpIndex != uint64(i) || resp.Resp != int64(i) {
			return 0, fmt.Errorf("serve: codec round trip changed operation %d", i)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(stream)), nil
}
