package check

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// feedMon drives any Monitor over a whole history: feed every event (a
// reported violation freezes the monitor, so feeding on is harmless and
// mirrors what a pipelined monitor needs), then Finish. The monitor's final
// accessor state is the result under test.
func feedMon(t *testing.T, m Monitor, h *history.History) {
	t.Helper()
	for i := 0; i < h.Len(); i++ {
		if v, _ := m.Feed(h.Event(i)); v != nil {
			break
		}
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestParseMonitorSpec(t *testing.T) {
	good := []struct {
		in        string
		want      MonitorSpec
		canonical string
	}{
		{"", MonitorSpec{Kind: MonitorFull}, "full"},
		{"full", MonitorSpec{Kind: MonitorFull}, "full"},
		{"sample:2", MonitorSpec{Kind: MonitorSample, N: 2}, "sample:2"},
		{"sample:64", MonitorSpec{Kind: MonitorSample, N: 64}, "sample:64"},
		{"shard:1", MonitorSpec{Kind: MonitorShardWindow, N: 1}, "shard:1"},
		{"shard:8", MonitorSpec{Kind: MonitorShardWindow, N: 8}, "shard:8"},
		{"shard:key", MonitorSpec{Kind: MonitorShardKey}, "shard:key"},
		{"none", MonitorSpec{Kind: MonitorNone}, "none"},
	}
	for _, c := range good {
		ms, err := ParseMonitorSpec(c.in)
		if err != nil {
			t.Errorf("ParseMonitorSpec(%q): %v", c.in, err)
			continue
		}
		if ms != c.want {
			t.Errorf("ParseMonitorSpec(%q) = %+v, want %+v", c.in, ms, c.want)
		}
		if ms.String() != c.canonical {
			t.Errorf("ParseMonitorSpec(%q).String() = %q, want %q", c.in, ms.String(), c.canonical)
		}
		// The canonical spelling parses back to the same spec.
		if back, err := ParseMonitorSpec(ms.String()); err != nil || back != ms {
			t.Errorf("round trip of %q: %+v, %v", ms.String(), back, err)
		}
	}
	for _, in := range []string{"sample:1", "sample:0", "sample:x", "shard:0", "shard:-2", "shard:", "bogus", "full:2", "sample"} {
		if ms, err := ParseMonitorSpec(in); err == nil {
			t.Errorf("ParseMonitorSpec(%q) accepted as %+v", in, ms)
		}
	}
}

func TestNewMonitorKinds(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16}
	cases := []struct {
		spec string
		is   func(Monitor) bool
	}{
		{"full", func(m Monitor) bool { _, ok := m.(*Incremental); return ok }},
		{"sample:4", func(m Monitor) bool { mm, ok := m.(*Incremental); return ok && mm.SampleEvery() == 4 }},
		{"shard:2", func(m Monitor) bool { _, ok := m.(*ShardedByWindow); return ok }},
		{"shard:key", func(m Monitor) bool { _, ok := m.(*ShardedByKey); return ok }},
		{"none", func(m Monitor) bool { _, ok := m.(*Null); return ok }},
	}
	for _, c := range cases {
		ms, err := ParseMonitorSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(ms, obj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.is(m) {
			t.Errorf("NewMonitor(%q) built %T with wrong shape", c.spec, m)
		}
		m.Abort()
	}
	if _, err := NewMonitor(MonitorSpec{Kind: MonitorShardWindow, N: 0}, obj, cfg); err == nil {
		t.Error("shard:0 monitor constructed")
	}
}

// requireSameOutcome pins a monitor's final state to the sequential
// reference: sample series, check count, verdict, and the violation window.
func requireSameOutcome(t *testing.T, label string, ref *Incremental, m Monitor) {
	t.Helper()
	rs, ms := ref.Samples(), m.Samples()
	if len(rs) != len(ms) {
		t.Fatalf("%s: %d samples, reference has %d", label, len(ms), len(rs))
	}
	for i := range rs {
		if rs[i] != ms[i] {
			t.Fatalf("%s: sample %d = %+v, reference %+v", label, i, ms[i], rs[i])
		}
	}
	if ref.Checks() != m.Checks() {
		t.Errorf("%s: checks = %d, reference %d", label, m.Checks(), ref.Checks())
	}
	rv, mv := ref.Verdict(), m.Verdict()
	if rv.Trend != mv.Trend || rv.FinalMinT != mv.FinalMinT {
		t.Errorf("%s: verdict trend=%s final=%d, reference trend=%s final=%d",
			label, mv.Trend, mv.FinalMinT, rv.Trend, rv.FinalMinT)
	}
	rw, mw := ref.Violation(), m.Violation()
	switch {
	case (rw == nil) != (mw == nil):
		t.Fatalf("%s: violation = %v, reference %v", label, mw, rw)
	case rw != nil:
		if rw.Start != mw.Start || rw.End != mw.End || rw.MinT != mw.MinT {
			t.Errorf("%s: violation window [%d,%d) minT=%d, reference [%d,%d) minT=%d",
				label, mw.Start, mw.End, mw.MinT, rw.Start, rw.End, rw.MinT)
		}
		if rw.Window.String() != mw.Window.String() {
			t.Errorf("%s: violation window text differs:\n%s\nreference:\n%s",
				label, mw.Window, rw.Window)
		}
	}
}

// equivalenceHistories are the fixed workloads every sharded monitor is
// pinned against: clean serial, clean concurrent, tolerated staleness, a
// mid-run duplicate (the junk-counter signature), and a stuck counter.
func equivalenceHistories(t *testing.T) map[string]*history.History {
	t.Helper()
	hs := map[string]*history.History{}

	hs["clean-serial"] = serialCounter(t, 300)

	conc := history.New()
	resp := int64(0)
	for round := 0; round < 80; round++ {
		mustDo(t, conc.Invoke(0, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, conc.Invoke(1, "C", spec.MakeOp(spec.MethodFetchInc)))
		mustDo(t, conc.Respond(1, resp))
		mustDo(t, conc.Respond(0, resp+1))
		resp += 2
	}
	hs["clean-concurrent"] = conc

	stale := history.New()
	k := int64(0)
	for round := 0; round < 40; round++ {
		mustDo(t, stale.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), k+1))
		mustDo(t, stale.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), k))
		k += 2
	}
	hs["tolerated-stale"] = stale

	dup := serialCounter(t, 120)
	mustDo(t, dup.Call(0, "C", spec.MakeOp(spec.MethodFetchInc), 120))
	mustDo(t, dup.Call(1, "C", spec.MakeOp(spec.MethodFetchInc), 120))
	for i := int64(121); i < 180; i++ {
		mustDo(t, dup.Call(int(i)%3, "C", spec.MakeOp(spec.MethodFetchInc), i))
	}
	hs["mid-run-duplicate"] = dup

	stuck := history.New()
	for i := int64(0); i < 160; i++ {
		r := i
		if r > 90 {
			r = 90 // the junk counter: increments lost past the stick point
		}
		mustDo(t, stuck.Call(int(i)%4, "C", spec.MakeOp(spec.MethodFetchInc), r))
	}
	hs["stuck-counter"] = stuck

	return hs
}

// The pipelined monitor is pinned to the sequential one: same samples, same
// checks, same verdict, same violation window — for every worker count, on
// clean, tolerated-stale and violating histories alike.
func TestShardedByWindowMatchesSequential(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16, MaxT: 2}
	for name, h := range equivalenceHistories(t) {
		ref := newIncremental(obj, cfg)
		feedMon(t, ref, h)
		for _, workers := range []int{1, 2, 4, 8} {
			m, err := NewShardedByWindow(obj, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			feedMon(t, m, h)
			requireSameOutcome(t, fmt.Sprintf("%s/shard:%d", name, workers), ref, m)
		}
	}
}

// Sampling through the interface: the sharded monitor skips the same
// windows as the sequential monitor when the knob turns at the same event.
func TestShardedByWindowSampling(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 16}
	h := serialCounter(t, 400)
	ref := newIncremental(obj, cfg)
	m, err := NewShardedByWindow(obj, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.Len(); i++ {
		if i == 5*16 { // degrade mid-run, off a window boundary's phase
			ref.SetSampleEvery(3)
			m.SetSampleEvery(3)
		}
		if _, err := ref.Feed(h.Event(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Feed(h.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	requireSameOutcome(t, "sampled", ref, m)
	if ref.SkippedWindows() != m.SkippedWindows() {
		t.Errorf("skipped = %d, reference %d", m.SkippedWindows(), ref.SkippedWindows())
	}
	if m.MaxSampleEvery() != 3 {
		t.Errorf("MaxSampleEvery = %d, want 3", m.MaxSampleEvery())
	}
}

// Abort mid-stream releases the pool without a tail check and is idempotent
// alongside Finish.
func TestShardedByWindowAbort(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	m, err := NewShardedByWindow(obj, IncrementalConfig{Stride: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := serialCounter(t, 30)
	for i := 0; i < 20; i++ {
		if _, err := m.Feed(h.Event(i)); err != nil {
			t.Fatal(err)
		}
	}
	m.Abort()
	m.Abort()
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Feed(h.Event(20)); v != nil {
		t.Fatal("aborted monitor reported a violation")
	}
}

// ShardedByKey: per-key subhistories check independently; a clean multi-key
// run composes clean, a violation in one key surfaces globally.
func TestShardedByKey(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	cfg := IncrementalConfig{Stride: 8, MaxT: 1}

	clean := history.New()
	a, b := int64(0), int64(0)
	for i := 0; i < 120; i++ {
		mustDo(t, clean.Call(0, "A", spec.MakeOp(spec.MethodFetchInc), a))
		a++
		mustDo(t, clean.Call(1, "B", spec.MakeOp(spec.MethodFetchInc), b))
		b++
	}
	m := NewShardedByKey(obj, cfg)
	feedMon(t, m, clean)
	if v := m.Violation(); v != nil {
		t.Fatalf("clean multi-key run flagged: %v", v)
	}
	if v := m.Verdict(); v.Trend != TrendStabilized || v.FinalMinT != 0 {
		t.Fatalf("verdict = %+v, want stabilized final 0", v)
	}
	if m.Events() != clean.Len() {
		t.Fatalf("events = %d, want %d", m.Events(), clean.Len())
	}
	if m.Checks() < 10 {
		t.Fatalf("checks = %d, want per-key windows on both keys", m.Checks())
	}

	bad := history.New()
	a, b = 0, 0
	for i := 0; i < 60; i++ {
		mustDo(t, bad.Call(0, "A", spec.MakeOp(spec.MethodFetchInc), a))
		a++
		r := b
		if i >= 30 {
			r = 30 // key B's counter sticks; key A stays clean
		} else {
			b++
		}
		mustDo(t, bad.Call(1, "B", spec.MakeOp(spec.MethodFetchInc), r))
	}
	m = NewShardedByKey(obj, cfg)
	feedMon(t, m, bad)
	v := m.Violation()
	if v == nil {
		t.Fatal("stuck key escaped the per-key monitor")
	}
	for i := 0; i < v.Window.Len(); i++ {
		if o := v.Window.Event(i).Obj; o != "B" {
			t.Fatalf("violation window names key %q, want B only:\n%s", o, v.Window)
		}
	}
}

func TestNullMonitor(t *testing.T) {
	m := NewNull()
	h := serialCounter(t, 20)
	feedMon(t, m, h)
	if m.Events() != h.Len() {
		t.Fatalf("events = %d, want %d", m.Events(), h.Len())
	}
	if m.Checks() != 0 || len(m.Samples()) != 0 || m.Violation() != nil {
		t.Fatal("record-only monitor checked something")
	}
	if v := m.Verdict(); v.Trend != TrendInconclusive {
		t.Fatalf("trend = %s, want inconclusive", v.Trend)
	}
	m.SetSampleEvery(8)
	if m.SampleEvery() != 1 || m.MaxSampleEvery() != 0 {
		t.Fatal("record-only monitor took a sampling knob")
	}
}

// Property: on any seeded single-key history — serial increments with
// bounded staleness swaps and an optional junk-counter stick — the
// pipelined monitor's outcome is the sequential monitor's, for a
// seed-derived worker count.
func TestShardedByWindowEquivalenceQuick(t *testing.T) {
	obj := spec.NewObject(spec.FetchInc{})
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := history.New()
		n := 100 + rng.Intn(300)
		stick := int64(-1)
		if rng.Intn(2) == 0 { // half the runs exercise the violation path
			stick = int64(20 + rng.Intn(n-20))
		}
		k := int64(0)
		emit := func(r int64) {
			mustDo(t, h.Call(rng.Intn(4), "C", spec.MakeOp(spec.MethodFetchInc), r))
		}
		for i := 0; i < n; i++ {
			r := k
			if stick >= 0 && k >= stick {
				r = stick // lost increments: the junk-counter signature
			}
			k++
			if rng.Intn(8) == 0 && i+1 < n {
				// Adjacent swap: tolerated staleness of 2.
				r2 := k
				if stick >= 0 && k >= stick {
					r2 = stick
				}
				k++
				i++
				emit(r2)
				emit(r)
				continue
			}
			emit(r)
		}
		cfg := IncrementalConfig{Stride: 8 + rng.Intn(24), MaxT: 2}
		ref := newIncremental(obj, cfg)
		feedMon(t, ref, h)
		m, err := NewShardedByWindow(obj, cfg, 1+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		feedMon(t, m, h)
		rv, mv := ref.Verdict(), m.Verdict()
		if rv.Trend != mv.Trend || rv.FinalMinT != mv.FinalMinT || ref.Checks() != m.Checks() {
			return false
		}
		rw, mw := ref.Violation(), m.Violation()
		if (rw == nil) != (mw == nil) {
			return false
		}
		if rw != nil && (rw.Start != mw.Start || rw.End != mw.End || rw.MinT != mw.MinT) {
			return false
		}
		return len(ref.Samples()) == len(m.Samples())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
