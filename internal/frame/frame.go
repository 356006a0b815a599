// Package frame is the one CRC framing shared by the server's wire
// protocol and the write-ahead log. Every frame is
//
//	len   uint32 LE   payload length
//	crc   uint32 LE   IEEE CRC-32 of the payload
//	payload
//
// A length above the 1 MiB bound is damage, not a large payload: a wire
// message or log record is tens of bytes, a log header well under 4k.
// Neither a stream nor a log carries resynchronization points, so the
// first bad frame ends what a reader can trust.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// maxFrame bounds a frame payload.
const maxFrame = 1 << 20

// headerLen is the size of the length and CRC fields before a payload.
const headerLen = 8

// errCRC reports a payload whose checksum does not match its header.
var errCRC = errors.New("frame: CRC mismatch")

// Append appends the framing of payload to b and returns the extended
// slice. It allocates only when b lacks the capacity, so a caller reusing
// one buffer frames without allocating.
func Append(b, payload []byte) []byte {
	b = slices.Grow(b, headerLen+len(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// Read reads one frame from a stream and returns its payload in a fresh
// slice. io.EOF passes through bare when the stream ends cleanly between
// frames; any other failure leaves the stream unusable.
func Read(r *bufio.Reader) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, crc, err := header(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("frame: short payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errCRC
	}
	return payload, nil
}

// Parse reads the frame at offset off of data and returns its payload,
// which aliases data, and the offset of the next frame. It accepts exactly
// the frames Read accepts.
func Parse(data []byte, off int) (payload []byte, next int, err error) {
	if off < 0 || len(data)-off < headerLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n, crc, err := header(data[off : off+headerLen])
	if err != nil {
		return nil, 0, err
	}
	start := off + headerLen
	if len(data)-start < n {
		return nil, 0, fmt.Errorf("frame: short payload: %w", io.ErrUnexpectedEOF)
	}
	payload = data[start : start+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, errCRC
	}
	return payload, start + n, nil
}

// header decodes and bounds-checks the length and CRC fields.
func header(hdr []byte) (n int, crc uint32, err error) {
	l := binary.LittleEndian.Uint32(hdr[0:4])
	if l > maxFrame {
		return 0, 0, fmt.Errorf("frame: length %d exceeds limit", l)
	}
	return int(l), binary.LittleEndian.Uint32(hdr[4:8]), nil
}
