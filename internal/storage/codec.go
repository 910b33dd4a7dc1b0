package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"unmasque/internal/sqldb"
)

// Row codec: the byte encoding of sqldb rows inside probe-cache
// records. The encoding is exact — every sqldb.Value
// round-trips bit-for-bit (floats via IEEE-754 bits, dates/bools via
// their canonical int64 payloads) so that fingerprints and result
// digests computed over loaded rows are byte-identical to the ones
// computed over the rows that were saved. See DESIGN.md §13.1.
//
// Record layout:
//
//	[u16 ncols] value*
//
// Value layout:
//
//	[tag byte] payload
//
// where tag = type | 0x80 when NULL (no payload; the type survives so
// typed NULLs round-trip), and the payload is: u32 length + bytes for
// TText, 8-byte IEEE-754 bits for TFloat, and the int64 I field
// little-endian for everything else.

const nullBit = 0x80

// appendValue appends the encoding of v to buf.
func appendValue(buf []byte, v sqldb.Value) []byte {
	tag := byte(v.Typ) & 0x7f
	if v.Null {
		return append(buf, tag|nullBit)
	}
	buf = append(buf, tag)
	switch v.Typ {
	case sqldb.TText:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.S)))
		buf = append(buf, v.S...)
	case sqldb.TFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	default:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.I))
	}
	return buf
}

// appendRow appends the encoding of row to buf.
func appendRow(buf []byte, row sqldb.Row) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(row)))
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

// scanValue checks the structure of the value at b[off:] and returns
// its tag, its payload bytes (nil for a NULL) and the offset just past
// it. It allocates nothing.
func scanValue(b []byte, off int) (tag byte, payload []byte, next int, err error) {
	if off >= len(b) {
		return 0, nil, 0, fmt.Errorf("storage: short value at %d: %w", off, ErrTornRecord)
	}
	tag = b[off]
	off++
	if tag&nullBit != 0 {
		return tag, nil, off, nil
	}
	n := 8 // float bits or int64
	if sqldb.Type(tag) == sqldb.TText {
		if off+4 > len(b) {
			return 0, nil, 0, fmt.Errorf("storage: short text length at %d: %w", off, ErrTornRecord)
		}
		n = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	if n > len(b)-off {
		return 0, nil, 0, fmt.Errorf("storage: short %s payload at %d: %w", sqldb.Type(tag), off, ErrTornRecord)
	}
	return tag, b[off : off+n], off + n, nil
}

// decodeValue decodes one value at b[off:], returning the value and
// the offset just past it.
func decodeValue(b []byte, off int) (sqldb.Value, int, error) {
	tag, payload, next, err := scanValue(b, off)
	if err != nil {
		return sqldb.Value{}, 0, err
	}
	v := sqldb.Value{Typ: sqldb.Type(tag &^ nullBit)}
	switch {
	case tag&nullBit != 0:
		v.Null = true
	case v.Typ == sqldb.TText:
		v.S = string(payload)
	case v.Typ == sqldb.TFloat:
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(payload))
	default:
		v.I = int64(binary.LittleEndian.Uint64(payload))
	}
	return v, next, nil
}

// rowWidth reads the value count of the row record at b[off:] and
// returns it with the offset of the first value. A count larger than
// the bytes left (each value takes at least its tag byte) is a torn
// record, so callers may size allocations by it.
func rowWidth(b []byte, off int) (int, int, error) {
	if off+2 > len(b) {
		return 0, 0, fmt.Errorf("storage: short row header at %d: %w", off, ErrTornRecord)
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if n > len(b)-off {
		return 0, 0, fmt.Errorf("storage: row of %d values at %d overruns the record: %w", n, off, ErrTornRecord)
	}
	return n, off, nil
}

// decodeRowAt decodes one row record (as produced by appendRow) at
// b[off:], returning the row and the offset just past it.
func decodeRowAt(b []byte, off int) (sqldb.Row, int, error) {
	n, off, err := rowWidth(b, off)
	if err != nil {
		return nil, 0, err
	}
	row := make(sqldb.Row, n)
	for i := range row {
		if row[i], off, err = decodeValue(b, off); err != nil {
			return nil, 0, err
		}
	}
	return row, off, nil
}

// skipRowAt checks the structure of the row record at b[off:] without
// decoding it, returning the offset just past it.
func skipRowAt(b []byte, off int) (int, error) {
	n, off, err := rowWidth(b, off)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, _, off, err = scanValue(b, off); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// decodeRow decodes one full row record. The record must be exactly
// consumed.
func decodeRow(b []byte) (sqldb.Row, error) {
	row, off, err := decodeRowAt(b, 0)
	if err != nil {
		return nil, err
	}
	if off != len(b) {
		return nil, fmt.Errorf("storage: %d trailing bytes after row: %w", len(b)-off, ErrTornRecord)
	}
	return row, nil
}
