package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Enc is a little appending binary encoder shared by the journal record
// and snapshot writers. All integers are little-endian fixed width —
// deterministic byte-for-byte, which the differential replay tests rely
// on when fingerprinting encoded state.
type Enc struct {
	B []byte
}

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}
func (e *Enc) Dur(d time.Duration) { e.I64(int64(d)) }

// Dec decodes what Enc produced. The first malformed read latches Err;
// subsequent reads return zero values, so call sites can decode a whole
// record and check Err() once.
type Dec struct {
	b   []byte
	off int
	err error
}

func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated %s at offset %d", what, d.off)
	}
}

func (d *Dec) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail("u8")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) I64() int64         { return int64(d.U64()) }
func (d *Dec) Bool() bool         { return d.U8() != 0 }
func (d *Dec) Dur() time.Duration { return time.Duration(d.I64()) }

// Len returns a declared element count after sanity-checking it against
// the bytes remaining (each element needs at least `min` bytes), so a
// corrupt count cannot drive a huge allocation.
func (d *Dec) Len(min int) int {
	n := int(d.U32())
	if d.err == nil && min > 0 && n > (len(d.b)-d.off)/min+1 {
		d.fail("length")
		return 0
	}
	return n
}

func (d *Dec) Err() error { return d.err }

// Remaining reports how many undecoded bytes are left.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// WriteSection frames one snapshot section (length + CRC + payload) onto w.
// Snapshot files are a header followed by framed sections, reusing the
// record framing so readers get the same torn/corrupt detection.
func WriteSection(w io.Writer, payload []byte) error {
	var frame [frameSize]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], checksum(payload))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadSection reads one framed section written by WriteSection.
func ReadSection(r io.Reader) ([]byte, error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, err
	}
	ln := binary.LittleEndian.Uint32(frame[:4])
	crc := binary.LittleEndian.Uint32(frame[4:])
	if ln > maxRecordBytes {
		return nil, errors.New("wal: implausible section length")
	}
	buf := make([]byte, ln)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if checksum(buf) != crc {
		return nil, ErrCorrupt
	}
	return buf, nil
}

func checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}
