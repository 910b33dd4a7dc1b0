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

// decodeValue decodes one value at b[off:], returning the value and
// the offset just past it.
func decodeValue(b []byte, off int) (sqldb.Value, int, error) {
	if off >= len(b) {
		return sqldb.Value{}, 0, fmt.Errorf("storage: short value at %d: %w", off, ErrTornRecord)
	}
	tag := b[off]
	off++
	v := sqldb.Value{Typ: sqldb.Type(tag &^ nullBit)}
	if tag&nullBit != 0 {
		v.Null = true
		return v, off, nil
	}
	switch v.Typ {
	case sqldb.TText:
		if off+4 > len(b) {
			return sqldb.Value{}, 0, fmt.Errorf("storage: short text length at %d: %w", off, ErrTornRecord)
		}
		n := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if n < 0 || off+n > len(b) {
			return sqldb.Value{}, 0, fmt.Errorf("storage: short text payload at %d: %w", off, ErrTornRecord)
		}
		v.S = string(b[off : off+n])
		off += n
	case sqldb.TFloat:
		if off+8 > len(b) {
			return sqldb.Value{}, 0, fmt.Errorf("storage: short float at %d: %w", off, ErrTornRecord)
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	default:
		if off+8 > len(b) {
			return sqldb.Value{}, 0, fmt.Errorf("storage: short int at %d: %w", off, ErrTornRecord)
		}
		v.I = int64(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return v, off, nil
}

// decodeRowAt decodes one row record (as produced by appendRow) at
// b[off:], returning the row and the offset just past it.
func decodeRowAt(b []byte, off int) (sqldb.Row, int, error) {
	if off+2 > len(b) {
		return nil, 0, fmt.Errorf("storage: short row header at %d: %w", off, ErrTornRecord)
	}
	ncols := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	row := make(sqldb.Row, 0, ncols)
	for i := 0; i < ncols; i++ {
		v, next, err := decodeValue(b, off)
		if err != nil {
			return nil, 0, err
		}
		row = append(row, v)
		off = next
	}
	return row, off, nil
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
