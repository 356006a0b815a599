// Package wal is the durable write-ahead commit log of the live runtime:
// an append-only file of CRC-framed records carrying the run's merged
// event stream (the commit log a live.CommitSink receives), plus the
// recovery reader that replays a log back into events — truncating any
// torn tail at the first bad frame, which is what makes a crash at an
// arbitrary point recoverable to the longest valid prefix.
//
// # File format
//
// A log is the 8-byte magic "ELINWAL1", one header frame, then one frame
// per event, each in the CRC framing of package frame. The header payload
// is a JSON Header (byte 0x00 first, distinguishing it from event
// payloads); an event payload is the compact binary encoding of one
// history.Event plus its merge position (commit ticket for responses,
// sequencer stamp for invocations). Everything after the first frame whose
// length is implausible or whose CRC fails is a torn tail: Recover stops
// there, reports Torn, and returns the events before it — a frame is either
// wholly durable or it never happened.
//
// # Durability knob
//
// Appends are buffered; the fsync policy ("always", "interval:N",
// "never") trades commit durability against throughput: always fsyncs
// every append (each commit durable before the next), interval:N fsyncs
// every N appends (at most N-1 commits lost to an OS crash; a process
// crash alone loses nothing buffered once Flush runs), never leaves
// syncing to the OS.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/elin-go/elin/internal/frame"
	"github.com/elin-go/elin/internal/history"
	"github.com/elin-go/elin/internal/spec"
)

// magic identifies a log file (8 bytes, version in the last byte).
var magic = [8]byte{'E', 'L', 'I', 'N', 'W', 'A', 'L', '1'}

// Sync policies. Positive SyncPolicy values fsync every N appends.
const (
	SyncNever  SyncPolicy = 0  // buffered writes, OS decides when to sync
	SyncAlways SyncPolicy = -1 // fsync after every append
)

// SyncPolicy is the fsync cadence: SyncAlways, SyncNever, or a positive
// interval N (fsync every N appends).
type SyncPolicy int

// ParseSyncPolicy reads "always", "never", "interval:N" or "" (never).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval:"); ok {
		n, err := strconv.Atoi(rest)
		if err == nil && n >= 1 {
			return SyncPolicy(n), nil
		}
	}
	return 0, fmt.Errorf("wal: sync policy %q (want always, never, or interval:N with N >= 1)", s)
}

// String renders the policy in ParseSyncPolicy grammar.
func (p SyncPolicy) String() string {
	switch {
	case p == SyncAlways:
		return "always"
	case p <= SyncNever:
		return "never"
	default:
		return fmt.Sprintf("interval:%d", int(p))
	}
}

// Header is the log's first frame: everything a recovery needs to rebuild
// the run without the process that wrote it — the registry names of the
// object and workload, the client count, and the seed that pins the
// object's response choices.
type Header struct {
	// Object is the registry name of the object under test.
	Object string `json:"object"`
	// ObjName is the object's name in recorded histories ("C", "R").
	ObjName string `json:"obj_name"`
	// Procs is the number of clients the run was started with.
	Procs int `json:"procs"`
	// Ops is the per-client operation budget.
	Ops int `json:"ops"`
	// Workload/Policy are the registry names driving the run.
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	// Seed pins the run's response choices — a recovered object must be
	// rebuilt with this seed or replay diverges.
	Seed int64 `json:"seed"`
	// Tolerance echoes the monitor tolerance the run was checked under.
	Tolerance int `json:"tolerance,omitempty"`
}

// Log is an open write-ahead log. Append is single-writer (the live
// runtime's merge loop); Recover reads files, not open Logs.
type Log struct {
	f       *os.File
	w       *bufio.Writer
	pol     SyncPolicy
	pending int    // appends since the last fsync
	payload []byte // reused event payload buffer
	frame   []byte // reused framed-record buffer
}

// Create creates (truncating) a log file and writes magic plus header.
func Create(path string, h Header, pol SyncPolicy) (*Log, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	l := &Log{f: f, w: bufio.NewWriterSize(f, 1<<16), pol: pol}
	if _, err := l.w.Write(magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: encode header: %w", err)
	}
	if err := l.write(append([]byte{frameHeader}, hdr...)); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Frame payload type tags (first payload byte).
const (
	frameHeader  = 0x00
	frameInvoke  = byte(history.KindInvoke)  // 0x01
	frameRespond = byte(history.KindRespond) // 0x02
)

// write frames and buffers one payload.
func (l *Log) write(payload []byte) error {
	l.frame = frame.Append(l.frame[:0], payload)
	if _, err := l.w.Write(l.frame); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// AppendEventPayload appends the binary encoding of one event (without
// framing) to b and returns the extended slice. Exported for the frame
// round-trip tests; Append is the writing path.
func AppendEventPayload(b []byte, e history.Event, pos uint64) []byte {
	b = append(b, byte(e.Kind))
	b = binary.AppendUvarint(b, uint64(e.Proc))
	b = binary.AppendUvarint(b, pos)
	if e.Kind == history.KindInvoke {
		return spec.AppendOp(b, e.Op)
	}
	return binary.AppendVarint(b, e.Resp)
}

// DecodeEventPayload decodes one event payload (the inverse of
// AppendEventPayload). The object name is not part of the payload — the
// caller substitutes the header's ObjName.
func DecodeEventPayload(b []byte) (e history.Event, pos uint64, err error) {
	bad := func(what string) (history.Event, uint64, error) {
		return history.Event{}, 0, fmt.Errorf("wal: bad event payload: %s", what)
	}
	if len(b) < 1 {
		return bad("empty")
	}
	kind := history.Kind(b[0])
	if kind != history.KindInvoke && kind != history.KindRespond {
		return bad(fmt.Sprintf("kind %d", b[0]))
	}
	b = b[1:]
	proc, n := binary.Uvarint(b)
	if n <= 0 || proc > 1<<31 {
		return bad("proc")
	}
	b = b[n:]
	pos, n = binary.Uvarint(b)
	if n <= 0 {
		return bad("pos")
	}
	b = b[n:]
	e = history.Event{Kind: kind, Proc: int(proc)}
	if kind == history.KindInvoke {
		if e.Op, b, err = spec.DecodeOp(b); err != nil {
			return bad(err.Error())
		}
	} else {
		v, n := binary.Varint(b)
		if n <= 0 {
			return bad("resp")
		}
		e.Resp = v
		b = b[n:]
	}
	if len(b) != 0 {
		return bad("trailing bytes")
	}
	return e, pos, nil
}

// Append logs one merged event. It implements the live runtime's
// CommitSink contract: a response frame is the durability point of its
// commit ticket under the configured fsync policy.
func (l *Log) Append(e history.Event, pos uint64) error {
	l.payload = AppendEventPayload(l.payload[:0], e, pos)
	if err := l.write(l.payload); err != nil {
		return err
	}
	l.pending++
	switch {
	case l.pol == SyncAlways:
		return l.Sync()
	case l.pol > 0 && l.pending >= int(l.pol):
		return l.Sync()
	}
	return nil
}

// Flush pushes buffered frames to the OS (no fsync).
func (l *Log) Flush() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Sync flushes and fsyncs.
func (l *Log) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.pending = 0
	return nil
}

// Close flushes, syncs and closes the file. Safe to call after a crash
// cut — the log is closed at a frame boundary by construction.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Recovered is a log read back from disk.
type Recovered struct {
	// Header is the run description the log was created with.
	Header Header
	// Events is the merged event stream, in log order, with the header's
	// ObjName substituted; Pos carries each event's merge position.
	Events []history.Event
	Pos    []uint64
	// Frames counts the event frames recovered (excluding the header).
	Frames int
	// Torn reports a truncated tail: TornAt is the byte offset of the
	// first bad frame, and everything before it was recovered.
	Torn   bool
	TornAt int64
}

// LastCommit returns the highest response position in the log — the commit
// ticket a resumed run's sequencer must continue from.
func (r *Recovered) LastCommit() uint64 {
	var last uint64
	for i, e := range r.Events {
		if e.Kind == history.KindRespond && r.Pos[i] > last {
			last = r.Pos[i]
		}
	}
	return last
}

// Recover reads a log file back: magic and header must be intact (without
// them nothing is interpretable), then event frames are read until EOF or
// the first bad frame — implausible length, short read, CRC mismatch, or
// an undecodable payload — at which point the tail is declared torn and
// everything before it returned. A clean shutdown yields Torn false.
func Recover(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	if err := checkMagic(path, data); err != nil {
		return nil, err
	}
	payload, off, err := frame.Parse(data, len(magic))
	rec := &Recovered{}
	if rec.Header, err = decodeHeader(path, payload, err); err != nil {
		return nil, err
	}
	for off < len(data) {
		payload, next, err := frame.Parse(data, off)
		if err != nil {
			rec.Torn, rec.TornAt = true, int64(off)
			break
		}
		e, pos, err := DecodeEventPayload(payload)
		if err != nil {
			rec.Torn, rec.TornAt = true, int64(off)
			break
		}
		e.Obj = rec.Header.ObjName
		rec.Events = append(rec.Events, e)
		rec.Pos = append(rec.Pos, pos)
		rec.Frames++
		off = next
	}
	return rec, nil
}

// checkMagic rejects a file that does not open with the log magic.
func checkMagic(path string, data []byte) error {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic[:]) {
		return fmt.Errorf("wal: recover %s: not a write-ahead log (bad magic)", path)
	}
	return nil
}

// decodeHeader decodes the header frame's payload, or reports the framing
// error err that kept it from being read.
func decodeHeader(path string, payload []byte, err error) (Header, error) {
	if err != nil || len(payload) < 1 || payload[0] != frameHeader {
		return Header{}, fmt.Errorf("wal: recover %s: header frame unreadable", path)
	}
	var h Header
	if err := json.Unmarshal(payload[1:], &h); err != nil {
		return Header{}, fmt.Errorf("wal: recover %s: header: %w", path, err)
	}
	return h, nil
}

// ReadHeaderOnly returns just the header of a log file, reading only the
// magic and the header frame (the cheap probe `elin recover` uses to
// default its flags before committing to a full recovery).
func ReadHeaderOnly(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, fmt.Errorf("wal: recover: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var m [len(magic)]byte
	n, err := io.ReadFull(br, m[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return Header{}, fmt.Errorf("wal: recover: %w", err)
	}
	if err := checkMagic(path, m[:n]); err != nil {
		return Header{}, err
	}
	payload, err := frame.Read(br)
	return decodeHeader(path, payload, err)
}

var _ io.Closer = (*Log)(nil)
