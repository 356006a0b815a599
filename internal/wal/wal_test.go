package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/elin-go/elin/internal/frame"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

func testHeader() Header {
	return Header{
		Object: "atomic-fi", ObjName: "C", Procs: 2, Ops: 4,
		Workload: "uniform:inc", Policy: "immediate", Seed: 42, Tolerance: 1,
	}
}

func testEvents() ([]history.Event, []uint64) {
	evs := []history.Event{
		{Kind: history.KindInvoke, Proc: 0, Obj: "C", Op: spec.MakeOp("inc")},
		{Kind: history.KindInvoke, Proc: 1, Obj: "C", Op: spec.MakeOp1("add", 7)},
		{Kind: history.KindRespond, Proc: 0, Obj: "C", Resp: 1},
		{Kind: history.KindRespond, Proc: 1, Obj: "C", Resp: -8},
		{Kind: history.KindInvoke, Proc: 0, Obj: "C", Op: spec.MakeOp2("cas", 1, 2)},
		{Kind: history.KindRespond, Proc: 0, Obj: "C", Resp: 0},
	}
	pos := []uint64{0, 0, 1, 2, 2, 3}
	return evs, pos
}

func writeLog(t *testing.T, pol SyncPolicy) (string, []history.Event, []uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wal")
	l, err := Create(path, testHeader(), pol)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	evs, pos := testEvents()
	for i, e := range evs {
		if err := l.Append(e, pos[i]); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path, evs, pos
}

func TestRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways, SyncPolicy(2)} {
		path, evs, pos := writeLog(t, pol)
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("pol %v: Recover: %v", pol, err)
		}
		if rec.Torn {
			t.Fatalf("pol %v: clean log reported torn at %d", pol, rec.TornAt)
		}
		if rec.Header != testHeader() {
			t.Fatalf("pol %v: header = %+v", pol, rec.Header)
		}
		if !reflect.DeepEqual(rec.Events, evs) || !reflect.DeepEqual(rec.Pos, pos) {
			t.Fatalf("pol %v: events mismatch:\n got %+v %v\nwant %+v %v",
				pol, rec.Events, rec.Pos, evs, pos)
		}
		if rec.Frames != len(evs) {
			t.Fatalf("pol %v: Frames = %d, want %d", pol, rec.Frames, len(evs))
		}
		if got := rec.LastCommit(); got != 3 {
			t.Fatalf("pol %v: LastCommit = %d, want 3", pol, got)
		}
	}
}

func TestTornTail(t *testing.T) {
	path, evs, _ := writeLog(t, SyncNever)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cutting the file at every byte length must recover a prefix of the
	// events, never an error (magic+header occupy the first frames; cuts
	// inside those are the only error cases). A cut exactly on a frame
	// boundary is indistinguishable from a clean shorter log, so Torn is
	// only required for mid-frame cuts.
	hdrEnd := headerEnd(t, data)
	boundary := map[int]bool{len(data): true}
	for off := hdrEnd; off < len(data); {
		_, next, err := frame.Parse(data, off)
		if err != nil {
			t.Fatal("pristine log has a bad frame")
		}
		boundary[off] = true
		off = next
	}
	for cut := len(data) - 1; cut >= 0; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		if cut < hdrEnd {
			if err == nil {
				t.Fatalf("cut %d (inside magic/header): want error", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		if !boundary[cut] && !rec.Torn {
			t.Fatalf("cut %d: mid-frame tail not reported torn", cut)
		}
		if boundary[cut] && rec.Torn {
			t.Fatalf("cut %d: frame-boundary cut reported torn", cut)
		}
		if len(rec.Events) > len(evs) {
			t.Fatalf("cut %d: recovered %d events from %d", cut, len(rec.Events), len(evs))
		}
		for i, e := range rec.Events {
			if !reflect.DeepEqual(e, evs[i]) {
				t.Fatalf("cut %d: event %d = %+v, want %+v", cut, i, e, evs[i])
			}
		}
	}
}

// headerEnd returns the offset just past the header frame.
func headerEnd(t *testing.T, data []byte) int {
	t.Helper()
	_, next, err := frame.Parse(data, len(magic))
	if err != nil {
		t.Fatal("header frame unreadable in pristine log")
	}
	return next
}

func TestCorruptMiddle(t *testing.T) {
	path, evs, _ := writeLog(t, SyncNever)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := headerEnd(t, data)
	// Flip one bit somewhere in the event region: recovery must stop at or
	// before the damaged frame and return only intact prefix events.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		off := hdrEnd + rng.Intn(len(data)-hdrEnd)
		bad := append([]byte(nil), data...)
		bad[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("trial %d off %d: Recover: %v", trial, off, err)
		}
		if !rec.Torn {
			t.Fatalf("trial %d off %d: bit flip not detected", trial, off)
		}
		for i, e := range rec.Events {
			if !reflect.DeepEqual(e, evs[i]) {
				t.Fatalf("trial %d: recovered event %d = %+v, want %+v", trial, i, e, evs[i])
			}
		}
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.wal")
	if err := os.WriteFile(path, []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); err == nil {
		t.Fatal("Recover accepted junk file")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"never", SyncNever, false},
		{"", SyncNever, false},
		{"interval:1", SyncPolicy(1), false},
		{"interval:4096", SyncPolicy(4096), false},
		{"interval:0", 0, true},
		{"interval:x", 0, true},
		{"sometimes", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v err=%v", c.in, got, err, c.want, c.err)
		}
	}
	if SyncAlways.String() != "always" || SyncNever.String() != "never" ||
		SyncPolicy(8).String() != "interval:8" {
		t.Error("SyncPolicy.String round-trip broken")
	}
}

// quickEvent is the testing/quick generator domain for one event: arbitrary
// kind choice, proc, pos, method bytes, args, and response.
type quickEvent struct {
	Respond bool
	Proc    uint16
	Pos     uint64
	Method  string
	NArgs   uint8
	Args    [2]int64
	Resp    int64
}

func (q quickEvent) event() (history.Event, uint64) {
	e := history.Event{Proc: int(q.Proc), Obj: "C"}
	if q.Respond {
		e.Kind = history.KindRespond
		e.Resp = q.Resp
	} else {
		e.Kind = history.KindInvoke
		e.Op.Method = q.Method
		e.Op.NArgs = int(q.NArgs % 3)
		for i := 0; i < e.Op.NArgs; i++ {
			e.Op.Args[i] = q.Args[i]
		}
	}
	return e, q.Pos
}

// TestQuickFrameRoundTrip is the satellite property test: encode/decode of
// event payloads round-trips for arbitrary events, and flipping a bit at a
// random offset of the encoding never round-trips silently to a different
// event — it either fails to decode or (for the rare compensating flips
// inside ignored padding, which this encoding doesn't have) decodes equal.
func TestQuickFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(q quickEvent, corruptAt uint16) bool {
		e, pos := q.event()
		b := AppendEventPayload(nil, e, pos)
		got, gotPos, err := DecodeEventPayload(b)
		if err != nil {
			t.Logf("decode clean: %v", err)
			return false
		}
		got.Obj = e.Obj // obj name travels in the header, not the payload
		if !reflect.DeepEqual(got, e) || gotPos != pos {
			t.Logf("round-trip mismatch: %+v/%d vs %+v/%d", got, gotPos, e, pos)
			return false
		}
		// Corrupt one bit at a random offset; decode must not panic, and if
		// it succeeds the result must differ from the original (the frame
		// CRC is what catches these in the full log path — here we assert
		// the payload decoder itself is safe on damaged input).
		bad := append([]byte(nil), b...)
		off := int(corruptAt) % len(bad)
		bad[off] ^= 1 << uint(rng.Intn(8))
		ce, cpos, cerr := DecodeEventPayload(bad)
		if cerr == nil {
			ce.Obj = e.Obj
			if reflect.DeepEqual(ce, e) && cpos == pos {
				t.Logf("bit flip at %d decoded identically", off)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// ReadHeaderOnly reads the header without the events: a torn tail does not
// matter to it, a bad magic or a damaged header frame does.
func TestReadHeaderOnly(t *testing.T) {
	path, _, _ := writeLog(t, SyncNever)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := headerEnd(t, data)
	for _, c := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"torn tail", data[:len(data)-3], true},
		{"header only", data[:hdrEnd], true},
		{"bad magic", append([]byte("ELINWAL0"), data[len(magic):]...), false},
		{"short magic", data[:5], false},
		{"header CRC", flipByte(data, hdrEnd-1), false},
		{"header cut", data[:hdrEnd-1], false},
	} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, err := ReadHeaderOnly(path)
		if c.ok && (err != nil || h != testHeader()) {
			t.Errorf("%s: ReadHeaderOnly = %+v, %v", c.name, h, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: ReadHeaderOnly accepted", c.name)
		}
	}
	if _, err := ReadHeaderOnly(filepath.Join(t.TempDir(), "missing.wal")); err == nil {
		t.Error("ReadHeaderOnly of a missing file accepted")
	}
}

func flipByte(data []byte, off int) []byte {
	bad := append([]byte(nil), data...)
	bad[off] ^= 1
	return bad
}

// Append frames into reused buffers: logging an event allocates nothing.
func TestAppendAllocationFree(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "run.wal"), testHeader(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	evs, pos := testEvents()
	i := 0
	n := testing.AllocsPerRun(200, func() {
		if err := l.Append(evs[i%len(evs)], pos[i%len(evs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n != 0 {
		t.Fatalf("Append: %v allocs per event, want 0", n)
	}
}

// FuzzDecodeEventPayload: decoding undoes AppendEventPayload, and no
// payload makes the decoder panic — what a hostile payload decodes to
// re-encodes to a payload that decodes to the same event.
func FuzzDecodeEventPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, respond bool, proc uint16, pos uint64, method string, nargs uint8, a, b, resp int64, raw []byte) {
		e, _ := quickEvent{Respond: respond, Proc: proc, Method: method, NArgs: nargs, Args: [2]int64{a, b}, Resp: resp}.event()
		e.Obj = ""
		got, gotPos, err := DecodeEventPayload(AppendEventPayload(nil, e, pos))
		if err != nil || got != e || gotPos != pos {
			t.Fatalf("round trip of %+v/%d: %+v/%d, %v", e, pos, got, gotPos, err)
		}
		got, gotPos, err = DecodeEventPayload(raw)
		if err != nil {
			return
		}
		again, againPos, err := DecodeEventPayload(AppendEventPayload(nil, got, gotPos))
		if err != nil || again != got || againPos != gotPos {
			t.Fatalf("re-encoding %+v/%d: %+v/%d, %v", got, gotPos, again, againPos, err)
		}
	})
}

// FuzzRecover: Recover never panics on arbitrary file bytes; it fails
// exactly when ReadHeaderOnly does, and a torn log is torn at its first
// bad frame — that frame does not parse or decode, and the bytes before it
// recover clean to the same events.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		h, herr := ReadHeaderOnly(path)
		if (err == nil) != (herr == nil) {
			t.Fatalf("Recover err %v, ReadHeaderOnly err %v", err, herr)
		}
		if err != nil {
			return
		}
		if h != rec.Header {
			t.Fatalf("ReadHeaderOnly header %+v, Recover header %+v", h, rec.Header)
		}
		if !rec.Torn {
			return
		}
		at := int(rec.TornAt)
		if at <= len(magic) || at >= len(data) {
			t.Fatalf("TornAt %d outside the event region of %d bytes", at, len(data))
		}
		if payload, _, perr := frame.Parse(data, at); perr == nil {
			if _, _, derr := DecodeEventPayload(payload); derr == nil {
				t.Fatalf("TornAt %d names a good frame", at)
			}
		}
		prefix := filepath.Join(dir, "prefix.wal")
		if err := os.WriteFile(prefix, data[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		clean, err := Recover(prefix)
		if err != nil || clean.Torn || clean.Frames != rec.Frames || !reflect.DeepEqual(clean.Events, rec.Events) {
			t.Fatalf("prefix before TornAt %d does not recover clean to the same events: %+v, %v", at, clean, err)
		}
	})
}
