package sqldb

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"
)

// Fingerprint is a content hash over a whole database instance. Two
// databases with identical table names, column definitions and row
// contents (in order) produce the same fingerprint. The extractor's
// run-memoization cache keys completed application executions on it:
// probing E twice on content-identical instances must yield the same
// result, so the second run can be skipped entirely.
type Fingerprint [sha256.Size]byte

// The canonical encoding shared by Database.Fingerprint and
// Result.Digest: strings are length-prefixed, numbers little-endian,
// and every value carries its type tag, so a NULL, an int 0 and an
// empty string all encode differently. The encoders append to a byte
// slice, and the hashers feed SHA-256 from one pooled buffer in
// canonChunk pieces, so encoding a value allocates nothing.

// canonChunk is the buffer size at which a hasher hands its encoded
// bytes to SHA-256.
const canonChunk = 32 << 10

// maxPooledBuf keeps a large digest slab from pinning its memory in
// the pool.
const maxPooledBuf = 1 << 20

// canonBufs recycles encode buffers: the daemon fingerprints and
// digests every probe of every job.
var canonBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, canonChunk)
	return &b
}}

func getCanonBuf() *[]byte { return canonBufs.Get().(*[]byte) }

// putCanonBuf returns a buffer to the pool; b must hold the buffer's
// latest slice header.
func putCanonBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	canonBufs.Put(b)
}

func appendCanonInt(b []byte, i int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(i))
}

func appendCanonStr(b []byte, s string) []byte {
	return append(appendCanonInt(b, int64(len(s))), s...)
}

// appendCanonValue appends the type-tagged encoding of one value.
func appendCanonValue(b []byte, v Value) []byte {
	if v.Null {
		return append(b, 0xff, byte(v.Typ))
	}
	b = append(b, byte(v.Typ))
	switch v.Typ {
	case TText:
		return appendCanonStr(b, v.S)
	case TFloat:
		return appendCanonInt(b, int64(math.Float64bits(v.F)))
	default: // TInt, TDate, TBool
		return appendCanonInt(b, v.I)
	}
}

// flushCanon hands b to h once it holds a chunk and returns it
// emptied; a shorter b is returned as is.
func flushCanon(h hash.Hash, b []byte) []byte {
	if len(b) < canonChunk {
		return b
	}
	h.Write(b)
	return b[:0]
}

// Fingerprint computes the content hash of the database. The hash
// covers, per table in creation order: the table name, every column's
// name, type and precision, and every row value. Schema metadata that
// cannot influence query evaluation (domain bounds, key linkages) is
// deliberately excluded so that equivalent probe instances collide.
//
// Cost is linear in the number of values; callers gating a cache
// should check TotalRows first and skip fingerprinting large
// instances where hashing would rival execution cost.
func (db *Database) Fingerprint() Fingerprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h := sha256.New()
	buf := getCanonBuf()
	b := *buf
	for _, name := range db.order {
		t := db.tables[name]
		b = appendCanonStr(b, t.Schema.Name)
		b = appendCanonInt(b, int64(len(t.Schema.Columns)))
		for _, col := range t.Schema.Columns {
			b = appendCanonStr(b, col.Name)
			b = append(b, byte(col.Type), byte(col.Precision))
			b = appendCanonInt(b, int64(col.MaxLen))
		}
		b = appendCanonInt(b, int64(len(t.Rows)))
		for _, r := range t.Rows {
			for _, v := range r {
				b = appendCanonValue(b, v)
			}
			b = flushCanon(h, b)
		}
	}
	h.Write(b)
	*buf = b
	putCanonBuf(buf)
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// Hex renders the fingerprint as lower-case hex.
func (f Fingerprint) Hex() string {
	const digits = "0123456789abcdef"
	out := make([]byte, 2*len(f))
	for i, b := range f {
		out[2*i] = digits[b>>4]
		out[2*i+1] = digits[b&0x0f]
	}
	return string(out)
}

// CloneShared builds a read-only structural copy of the database: each
// table gets a fresh Table struct and schema, but the row slice is
// SHARED with the receiver. The copy supports the structural mutations
// the from-clause probe needs (RenameTable, DropTable) without paying
// for a row copy, which makes rename probes cheap enough to fan out in
// parallel over the full provided instance.
//
// Callers must not mutate row contents through a shared clone (SetAll,
// Set, NegateColumn, Insert and the minimizer primitives all write
// through to the original); use Clone for a probe that rewrites
// values.
func (db *Database) CloneShared() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := db.newLike()
	for _, n := range db.order {
		t := db.tables[n]
		// Fresh Table struct: rows are shared, but build caches are
		// not — a shared clone never inherits or leaks cache state.
		out.tables[n] = &Table{Schema: t.Schema.Clone(), Rows: t.Rows}
		out.order = append(out.order, n)
	}
	return out
}
