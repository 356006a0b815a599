package scenario

import (
	"fmt"
	"runtime"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/registry"
	"github.com/elin-go/elin/internal/spec"
	"github.com/elin-go/elin/internal/wal"
)

// Live is the real-concurrency engine: Procs goroutine clients hammer one
// genuinely shared object, an online windowed monitor t-lin-checks the
// merged history as it grows, and a violation is ddmin-shrunk and
// confirmed in the deterministic simulator. With FuzzRuns > 0 the engine
// runs a seeded fuzz campaign instead of a single run.
type Live struct{}

// Name implements Engine.
func (Live) Name() string { return "live" }

// resolveLive resolves the object under stress.
func (s Scenario) resolveLive() (live.Object, error) {
	policy, err := s.resolvePolicy()
	if err != nil {
		return nil, err
	}
	return registry.LiveObject(s.Impl, s.Procs, policy, s.Seed, s.Check)
}

// monitorStride picks the window stride: generous for the polynomial
// checkers, capped for generic types whose windows hold at most
// check.MaxOpsPerObject operations.
func monitorStride(obj live.Object, clients, stride int) (int, error) {
	if stride > 0 {
		return stride, nil
	}
	switch obj.Spec().Type.(type) {
	case spec.FetchInc, spec.Consensus:
		return 512, nil
	default:
		s := 2 * (check.MaxOpsPerObject - clients - 2)
		if s < 8 {
			return 0, fmt.Errorf("scenario: %d clients leave no window room for the generic checker (cap %d ops); lower Procs or use monitor none",
				clients, check.MaxOpsPerObject)
		}
		if s > 80 {
			s = 80
		}
		return s, nil
	}
}

// Run implements Engine.
func (Live) Run(s Scenario) (*Report, error) {
	s = s.withDefaults()
	if s.NetFaults != "" && s.NetFaults != "none" {
		return nil, fmt.Errorf("scenario: net-faults %q are a serve-engine feature; engine %q rejects them (the live engine has no connections to sever)", s.NetFaults, "live")
	}
	obj, err := s.resolveLive()
	if err != nil {
		return nil, err
	}
	gen, err := registry.OpGenByName(s.Workload, obj.Spec())
	if err != nil {
		return nil, err
	}
	mspec, err := s.resolveMonitor()
	if err != nil {
		return nil, err
	}
	stride := 0
	if !s.monitorOff() {
		stride, err = monitorStride(obj, s.Procs, s.Stride)
		if err != nil {
			return nil, err
		}
	}
	fspec, err := s.resolveFaults()
	if err != nil {
		return nil, err
	}
	cfg := live.Config{
		Object:        obj,
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
	}
	rep := &Report{Schema: Schema, Engine: "live", Scenario: s.info("live")}

	if s.FuzzRuns > 0 {
		if s.WAL != "" || !fspec.Zero() || s.Serial {
			return nil, fmt.Errorf("scenario: fuzz campaigns do not compose with faults, WAL logging or the serial driver")
		}
		return runFuzz(rep, cfg, s)
	}
	if s.WAL != "" {
		pol, err := wal.ParseSyncPolicy(s.WALSync)
		if err != nil {
			return nil, err
		}
		log, err := wal.Create(s.WAL, wal.Header{
			Object:    s.Impl,
			ObjName:   obj.Name(),
			Procs:     s.Procs,
			Ops:       s.Ops,
			Workload:  orDefault(s.Workload, DefaultWorkload),
			Policy:    orDefault(s.Policy, DefaultPolicy),
			Seed:      s.Seed,
			Tolerance: s.Tolerance,
		}, pol)
		if err != nil {
			return nil, err
		}
		cfg.Sink = log // Run owns the sink and closes it on every path
	} else if s.WALSync != "" {
		return nil, fmt.Errorf("scenario: WALSync %q set without a WAL path", s.WALSync)
	}

	res, err := live.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep.history = res.History
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
		rep.Detail = fmt.Sprintf("crashed at commit %d (injected fault); %d ops merged before the cut", res.CrashTicket, res.Ops)
	case s.monitorOff():
		rep.Detail = "run completed (monitoring disabled)"
	default:
		rep.Detail = "no monitor window exceeded tolerance"
	}
	if res.Crashed {
		// The history ends mid-flight: replay verification applies to the
		// recovered continuation (scenario.Recover), not the cut.
		return rep, nil
	}
	if !s.NoVerify {
		same, err := live.Verify(obj, res.History)
		if err != nil {
			return nil, err
		}
		rep.Checks = &Checks{ReplayIdentical: boolPtr(same)}
	}
	return rep, nil
}

// witnessOf converts a monitor violation, shrinking it unless disabled.
func witnessOf(v *check.WindowViolation, s Scenario) (*WitnessInfo, error) {
	wi := &WitnessInfo{
		WindowStart: v.Start,
		WindowEnd:   v.End,
		MinT:        v.MinT,
		History:     v.Window.String(),
	}
	if s.NoShrink {
		return wi, nil
	}
	w, err := live.Shrink(v, s.Check)
	if err != nil {
		return nil, err
	}
	wi.History = w.History.String()
	wi.Shrunk = &ShrunkInfo{
		Ops:         w.Ops,
		Trials:      w.Trials,
		SimDiverged: w.Replay != nil && w.Replay.Diverged,
	}
	if w.Replay != nil && w.Replay.Diverged {
		wi.Shrunk.Proc = w.Replay.Proc
		wi.Shrunk.Op = w.Replay.Op.String()
		wi.Shrunk.Got = w.Replay.Got
		wi.Shrunk.Want = w.Replay.Want
	}
	return wi, nil
}

// runFuzz executes a fuzz campaign and reports it.
func runFuzz(rep *Report, cfg live.Config, s Scenario) (*Report, error) {
	res, err := live.Fuzz(live.FuzzConfig{
		Base:      cfg,
		Runs:      s.FuzzRuns,
		NoShrink:  s.NoShrink,
		CheckOpts: s.Check,
	})
	if err != nil {
		return nil, err
	}
	rep.Fuzz = &FuzzInfo{Runs: res.Runs, TotalOps: res.TotalOps, Found: res.Found(), Seed: res.Seed}
	if !res.Found() {
		rep.Verdict = VerdictOK
		rep.Detail = fmt.Sprintf("no violation in %d runs", res.Runs)
		return rep, nil
	}
	rep.Verdict = VerdictViolation
	rep.Detail = fmt.Sprintf("violation at seed %d: %s", res.Seed, res.Violation)
	wi := &WitnessInfo{
		WindowStart: res.Violation.Start,
		WindowEnd:   res.Violation.End,
		MinT:        res.Violation.MinT,
		History:     res.Violation.Window.String(),
	}
	if res.Witness != nil {
		wi.History = res.Witness.History.String()
		wi.Shrunk = &ShrunkInfo{
			Ops:         res.Witness.Ops,
			Trials:      res.Witness.Trials,
			SimDiverged: res.Witness.Replay != nil && res.Witness.Replay.Diverged,
		}
		if res.Witness.Replay != nil && res.Witness.Replay.Diverged {
			wi.Shrunk.Proc = res.Witness.Replay.Proc
			wi.Shrunk.Op = res.Witness.Replay.Op.String()
			wi.Shrunk.Got = res.Witness.Replay.Got
			wi.Shrunk.Want = res.Witness.Replay.Want
		}
	}
	rep.Witness = wi
	return rep, nil
}
