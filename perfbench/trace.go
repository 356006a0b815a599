package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/elin-go/elin/internal/check"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/live"
	"github.com/elin-go/elin/internal/spec"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public seam. Parent names the span that caused it (the
// trial); spans of one trial share its Trial number.
type span struct {
	Trial   int    `json:"trial"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps every span of a traced run in memory until the run ends.
type spanLog struct {
	base  time.Time
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) add(trial int, name string, start, end int64) {
	parent := "trial"
	if name == "trial" {
		parent = ""
	}
	l.spans = append(l.spans, span{Trial: trial, Name: name, Parent: parent, StartNS: start, EndNS: end})
}

// write stores the spans as JSON lines under dir and returns the file path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// errViolation marks a traced trial whose monitor flagged a window.
var errViolation = errors.New("perfbench: monitor violation")

// tracer instruments one traced live or serve trial from outside the
// program: a wrapped live.Object times Apply and stamps each commit, and a
// live.CommitSink forwards every merged event to the real sink (the WAL)
// and then feeds a benchmark-owned check.Monitor, timing both. The runtime
// calls the sink before its own monitor, so with the runtime's monitor
// switched off the order of persistence and checking is unchanged.
type tracer struct {
	log   *spanLog
	trial int

	commitAt []int64   // commit time per ticket (1-based)
	applyNS  [][]int64 // Apply durations, per client

	inner   live.CommitSink
	mon     check.Monitor
	failed  bool
	checks  int
	pending []uint64 // tickets fed since the last window closed

	mergeLag, checkedLag, windowNS, walNS []int64
	windowOps                             []int
	feedNS                                int64
	walCloseNS                            int64
}

func newTracer(log *spanLog, trial, clients, ops int, inner live.CommitSink, mon check.Monitor) *tracer {
	t := &tracer{
		log:      log,
		trial:    trial,
		commitAt: make([]int64, clients*ops+1),
		applyNS:  make([][]int64, clients),
		inner:    inner,
		mon:      mon,
	}
	for c := range t.applyNS {
		t.applyNS[c] = make([]int64, 0, ops)
	}
	return t
}

// object wraps obj so that every Apply is timed and its commit stamped.
func (t *tracer) object(obj live.Object) live.Object { return &timedObject{Object: obj, t: t} }

type timedObject struct {
	live.Object
	t *tracer
}

// Apply times the inner Apply. The commit stamp is written before the
// caller publishes the commit to its shard, and the sink reads it only
// after the merger has consumed that record, so the two are ordered.
func (o *timedObject) Apply(proc int, op spec.Op, seq *atomic.Uint64) (int64, uint64, error) {
	start := o.t.log.now()
	resp, ticket, err := o.Object.Apply(proc, op, seq)
	end := o.t.log.now()
	if ticket < uint64(len(o.t.commitAt)) {
		o.t.commitAt[ticket] = end
	}
	o.t.applyNS[proc] = append(o.t.applyNS[proc], end-start)
	return resp, ticket, err
}

func (t *tracer) commit(ticket uint64) int64 {
	if ticket < uint64(len(t.commitAt)) {
		return t.commitAt[ticket]
	}
	return 0
}

// Append implements live.CommitSink.
func (t *tracer) Append(e history.Event, pos uint64) error {
	now := t.log.now()
	if e.Kind == history.KindRespond {
		t.mergeLag = append(t.mergeLag, now-t.commit(pos))
		t.pending = append(t.pending, pos)
	}
	if t.inner != nil {
		if err := t.inner.Append(e, pos); err != nil {
			t.failed = true
			return err
		}
		after := t.log.now()
		t.walNS = append(t.walNS, after-now)
		now = after
	}
	v, err := t.mon.Feed(e)
	end := t.log.now()
	t.feedNS += end - now
	if err != nil {
		t.failed = true
		return err
	}
	t.windowClosed(now, end)
	if v != nil {
		t.failed = true
		return fmt.Errorf("%w: %s", errViolation, v)
	}
	return nil
}

// windowClosed records a window check if the monitor just ran one: every
// operation fed since the previous check is now checked.
func (t *tracer) windowClosed(start, end int64) {
	c := t.mon.Checks()
	if c == t.checks {
		return
	}
	t.checks = c
	t.windowNS = append(t.windowNS, end-start)
	t.windowOps = append(t.windowOps, len(t.pending))
	for _, tk := range t.pending {
		t.checkedLag = append(t.checkedLag, end-t.commit(tk))
	}
	t.pending = t.pending[:0]
	t.log.add(t.trial, "check.window", start, end)
}

// Close implements live.CommitSink: the monitor's final window first, then
// the real sink, the order the runtime uses.
func (t *tracer) Close() error {
	var err error
	if t.failed {
		t.mon.Abort()
	} else {
		start := t.log.now()
		v, ferr := t.mon.Finish()
		end := t.log.now()
		t.feedNS += end - start
		t.windowClosed(start, end)
		switch {
		case ferr != nil:
			err = ferr
		case v != nil:
			err = fmt.Errorf("%w: %s", errViolation, v)
		}
	}
	if t.inner != nil {
		start := t.log.now()
		cerr := t.inner.Close()
		end := t.log.now()
		t.walCloseNS = end - start
		t.log.add(t.trial, "wal.close", start, end)
		if err == nil {
			err = cerr
		}
	}
	return err
}

// layers returns the per-layer figures of a completed trial whose
// operations took runNS from the first operation to the verdict. applyKey
// names the layer that served Apply (live or server).
func (t *tracer) layers(runNS int64, applyKey string) map[string]float64 {
	var apply []int64
	for _, a := range t.applyNS {
		apply = append(apply, a...)
	}
	mintMax := 0
	for _, s := range t.mon.Samples() {
		mintMax = max(mintMax, s.MinT)
	}
	winOps := 0
	for _, n := range t.windowOps {
		winOps += n
	}
	m := map[string]float64{
		applyKey + ".apply_ns_p50": float64(percentile(apply, 0.5)),
		"live.merge_lag_us_p50":    float64(percentile(t.mergeLag, 0.5)) / 1e3,
		"live.merge_lag_us_p99":    float64(percentile(t.mergeLag, 0.99)) / 1e3,
	}
	// A record-only monitor checks no window: the check layer is unused.
	if len(t.windowOps) > 0 {
		m["check.busy_frac"] = float64(t.feedNS) / float64(runNS)
		m["check.windows"] = float64(len(t.windowNS))
		m["check.window_us_p50"] = float64(percentile(t.windowNS, 0.5)) / 1e3
		m["check.window_us_p99"] = float64(percentile(t.windowNS, 0.99)) / 1e3
		m["check.checked_lag_us_p50"] = float64(percentile(t.checkedLag, 0.5)) / 1e3
		m["check.checked_lag_us_p99"] = float64(percentile(t.checkedLag, 0.99)) / 1e3
		m["check.mint_max"] = float64(mintMax)
		m["check.window_ops_mean"] = float64(winOps) / float64(len(t.windowOps))
	}
	if t.inner != nil {
		m["wal.append_ns_p50"] = float64(percentile(t.walNS, 0.5))
		m["wal.close_ms"] = float64(t.walCloseNS) / 1e6
	}
	return m
}

// countingListener counts the Read and Write calls, and the bytes moved, on
// every connection it accepts.
type countingListener struct {
	net.Listener
	reads, writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.reads.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}
