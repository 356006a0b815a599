package scenario

import (
	"fmt"
	"runtime"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/wal"
)

// Recover runs the crash-recovery pipeline on the Live engine: recover a
// commit log (truncating any torn tail at the first bad frame), replay it
// against a fresh template — verifying every recorded response against the
// commit-determinism contract — and continue the run with fresh clients on
// top of the recovered state, online-monitoring the stitched history so
// the verdict covers the crash cut.
//
// The scenario parameterizes the continuation; zero-valued fields default
// from the log header, so Recover("run.wal", Scenario{}) continues a
// crashed run exactly as it was configured. Seed defaults to the header
// seed + 1 (the continuation draws fresh op streams; the header seed keeps
// pinning the recovered object's response choices). When s.WAL names a
// path, the recovered prefix is copied into it before the continuation
// appends, so the new log is self-contained and itself recoverable.
func Recover(walPath string, s Scenario) (*Report, error) {
	rec, err := wal.Recover(walPath)
	if err != nil {
		return nil, err
	}
	hdr := rec.Header
	if s.Procs <= 0 {
		s.Procs = hdr.Procs
	}
	if s.Ops <= 0 {
		s.Ops = hdr.Ops
	}
	if s.Workload == "" {
		s.Workload = hdr.Workload
	}
	if s.Policy == "" {
		s.Policy = hdr.Policy
	}
	if s.Tolerance == 0 {
		s.Tolerance = hdr.Tolerance
	}
	if s.Seed == 0 {
		s.Seed = hdr.Seed + 1
	}
	s.Impl = hdr.Object
	s = s.withDefaults()

	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, err
	}
	fspec, err := s.resolveFaults()
	if err != nil {
		return nil, err
	}
	// The template covers the crashed run's procs plus the continuation
	// clients and replays with the original seed: response choices of
	// eventually linearizable objects are a pure function of (seed, ticket),
	// which is what makes the recorded log verifiable at all.
	template, err := registry.LiveObject(hdr.Object, hdr.Procs+s.Procs, policy, hdr.Seed, s.Check)
	if err != nil {
		return nil, fmt.Errorf("scenario: recover %s: %w", walPath, err)
	}
	rr, err := live.Resume(template, rec)
	if err != nil {
		return nil, err
	}
	gen, err := registry.OpGenByName(s.Workload, rr.Object.Spec())
	if err != nil {
		return nil, err
	}
	mspec, err := s.resolveMonitor()
	if err != nil {
		return nil, err
	}
	stride := 0
	if !s.monitorOff() {
		stride, err = monitorStride(rr.Object, hdr.Procs+s.Procs, s.Stride)
		if err != nil {
			return nil, err
		}
	}
	cfg := live.Config{
		Object:        rr.Object,
		Clients:       s.Procs,
		Ops:           s.Ops,
		Gen:           gen,
		Seed:          s.Seed,
		Rate:          s.Rate,
		Monitor:       check.IncrementalConfig{Stride: stride, MaxT: s.Tolerance, Opts: s.Check},
		MonitorSpec:   mspec,
		LatencySample: s.LatencySample,
		Faults:        fspec,
		Serial:        s.Serial,
		StartSeq:      rr.NextSeq,
		ProcBase:      hdr.Procs,
		History:       rr.History,
	}
	if s.WAL != "" {
		pol, err := wal.ParseSyncPolicy(s.WALSync)
		if err != nil {
			return nil, err
		}
		log, err := wal.Create(s.WAL, wal.Header{
			Object:    hdr.Object,
			ObjName:   hdr.ObjName,
			Procs:     hdr.Procs + s.Procs,
			Ops:       s.Ops,
			Workload:  s.Workload,
			Policy:    s.Policy,
			Seed:      hdr.Seed,
			Tolerance: s.Tolerance,
		}, pol)
		if err != nil {
			return nil, err
		}
		for i, e := range rec.Events {
			if err := log.Append(e, rec.Pos[i]); err != nil {
				log.Close()
				return nil, fmt.Errorf("scenario: recover: copying prefix into %s: %w", s.WAL, err)
			}
		}
		cfg.Sink = log
	} else if s.WALSync != "" {
		return nil, fmt.Errorf("scenario: WALSync %q set without a WAL path", s.WALSync)
	}

	res, err := live.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Schema: Schema, Engine: "live", Scenario: s.info("live")}
	rep.history = res.History
	rep.Recovery = &RecoveryInfo{
		Frames:           rec.Frames,
		Torn:             rec.Torn,
		TornAt:           rec.TornAt,
		RecoveredEvents:  len(rec.Events),
		RecoveredCommits: rr.Committed,
		PendingOps:       rr.Pending,
		ResumedSeq:       rr.NextSeq,
		ContinuedOps:     res.Ops,
		StitchedEvents:   res.History.Len(),
	}
	rep.Perf = &PerfInfo{
		Ops:            res.Ops,
		Events:         res.History.Len(),
		NS:             res.Elapsed.Nanoseconds(),
		ThroughputOpsS: res.Throughput,
		P50NS:          res.LatP50.Nanoseconds(),
		P95NS:          res.LatP95.Nanoseconds(),
		P99NS:          res.LatP99.Nanoseconds(),
		Gomaxprocs:     runtime.GOMAXPROCS(0),
	}
	if !s.monitorOff() {
		rep.Trend = trendInfo(res.Verdict)
	}
	if res.Violation != nil {
		rep.Verdict = VerdictViolation
		rep.Detail = res.Violation.String()
		wi, err := witnessOf(res.Violation, s)
		if err != nil {
			return nil, err
		}
		rep.Witness = wi
		return rep, nil
	}
	rep.Verdict = VerdictOK
	switch {
	case res.Crashed:
		rep.Detail = fmt.Sprintf("recovered %d commits, then crashed again at commit %d (injected fault)",
			rr.Committed, res.CrashTicket)
	case s.monitorOff():
		rep.Detail = fmt.Sprintf("recovered %d commits and continued %d ops (monitoring disabled)", rr.Committed, res.Ops)
	case rec.Torn:
		rep.Detail = fmt.Sprintf("recovered %d commits from a torn log (cut at byte %d) and continued %d ops; stitched history within tolerance",
			rr.Committed, rec.TornAt, res.Ops)
	default:
		rep.Detail = fmt.Sprintf("recovered %d commits and continued %d ops; stitched history within tolerance",
			rr.Committed, res.Ops)
	}
	return rep, nil
}
