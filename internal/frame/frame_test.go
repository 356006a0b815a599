package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func readAll(data []byte) ([]byte, error) {
	return Read(bufio.NewReader(bytes.NewReader(data)))
}

// A frame round-trips through both readers, and any flipped byte after
// the length field fails the CRC in both.
func TestRoundTripAndCorruption(t *testing.T) {
	payload := []byte{0x03, 0x03, 0x08, 'f', 'e', 't', 'c', 'h', 'i', 'n', 'c', 0x00}
	frame := Append(nil, payload)
	if len(frame) != headerLen+len(payload) {
		t.Fatalf("Append: len %d, want %d", len(frame), headerLen+len(payload))
	}
	got, err := readAll(frame)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %x, %v", got, err)
	}
	got, next, err := Parse(append([]byte("pad"), frame...), 3)
	if err != nil || !bytes.Equal(got, payload) || next != 3+len(frame) {
		t.Fatalf("Parse = %x, %d, %v", got, next, err)
	}
	for i := 4; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := readAll(bad); !errors.Is(err, errCRC) {
			t.Fatalf("Read: flipped byte %d: err = %v, want errCRC", i, err)
		}
		if _, _, err := Parse(bad, 0); !errors.Is(err, errCRC) {
			t.Fatalf("Parse: flipped byte %d: err = %v, want errCRC", i, err)
		}
	}
}

func TestRejections(t *testing.T) {
	long := binary.LittleEndian.AppendUint32(nil, maxFrame+1)
	long = append(long, 0, 0, 0, 0)
	frame := Append(nil, []byte("payload"))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", frame[:5]},
		{"short payload", frame[:len(frame)-1]},
		{"over limit", long},
	} {
		if _, err := readAll(c.data); err == nil {
			t.Errorf("%s: Read accepted", c.name)
		}
		if _, _, err := Parse(c.data, 0); err == nil {
			t.Errorf("%s: Parse accepted", c.name)
		}
	}
	if _, err := readAll(nil); err != io.EOF {
		t.Errorf("Read on an empty stream: err = %v, want bare io.EOF", err)
	}
	if _, _, err := Parse(frame, len(frame)+1); err == nil {
		t.Error("Parse past the end accepted")
	}
}

// Append into a reused buffer with room allocates nothing — the WAL's
// append path depends on it.
func TestAppendReuseAllocationFree(t *testing.T) {
	payload := []byte("0123456789")
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], payload) }); n != 0 {
		t.Fatalf("Append into a reused buffer: %v allocs, want 0", n)
	}
}

// FuzzReadParse: the stream reader and the slice parser accept exactly the
// same inputs with the same payload, and neither panics.
func FuzzReadParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p1, next, err1 := Parse(data, 0)
		p2, err2 := readAll(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Parse err %v, Read err %v", err1, err2)
		}
		if err1 == nil && (!bytes.Equal(p1, p2) || next != headerLen+len(p1)) {
			t.Fatalf("Parse %x (next %d) vs Read %x", p1, next, p2)
		}
		if len(data) <= maxFrame {
			framed := Append(nil, data)
			if p, _, err := Parse(framed, 0); err != nil || !bytes.Equal(p, data) {
				t.Fatalf("Append/Parse round trip: %x, %v", p, err)
			}
		}
	})
}
