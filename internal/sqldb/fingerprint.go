package sqldb

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
)

// Fingerprint is a content hash over a whole database instance. Two
// databases with identical table names, column definitions and row
// contents (in order) produce the same fingerprint. The extractor's
// run-memoization cache keys completed application executions on it:
// probing E twice on content-identical instances must yield the same
// result, so the second run can be skipped entirely.
type Fingerprint [sha256.Size]byte

// canonWriter frames values into w with the canonical length-
// prefixed, type-tagged encoding shared by Database.Fingerprint and
// Result.Digest: strings are length-prefixed, numbers little-endian,
// and every value carries its type tag, so a NULL, an int 0 and an
// empty string all encode differently.
type canonWriter struct {
	w       io.Writer
	scratch [8]byte
}

func (c *canonWriter) writeInt(i int64) {
	binary.LittleEndian.PutUint64(c.scratch[:], uint64(i))
	c.w.Write(c.scratch[:])
}

func (c *canonWriter) writeStr(s string) {
	c.writeInt(int64(len(s)))
	io.WriteString(c.w, s)
}

// writeValue encodes one value with an unambiguous type-tagged
// encoding.
func (c *canonWriter) writeValue(v Value) {
	if v.Null {
		c.w.Write([]byte{0xff, byte(v.Typ)})
		return
	}
	c.w.Write([]byte{byte(v.Typ)})
	switch v.Typ {
	case TText:
		c.writeStr(v.S)
	case TFloat:
		c.writeInt(int64(math.Float64bits(v.F)))
	default: // TInt, TDate, TBool
		c.writeInt(v.I)
	}
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
	c := &canonWriter{w: h}
	for _, name := range db.order {
		t := db.tables[name]
		c.writeStr(t.Schema.Name)
		c.writeInt(int64(len(t.Schema.Columns)))
		for _, col := range t.Schema.Columns {
			c.writeStr(col.Name)
			h.Write([]byte{byte(col.Type), byte(col.Precision)})
			c.writeInt(int64(col.MaxLen))
		}
		c.writeInt(int64(len(t.Rows)))
		for _, r := range t.Rows {
			for _, v := range r {
				c.writeValue(v)
			}
		}
	}
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
// for a row copy, which makes per-table rename probes cheap enough to
// fan out in parallel over the full provided instance.
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
		// Fresh Table struct: rows are shared, but index/build caches
		// are not — a shared clone never inherits or leaks cache state.
		out.tables[n] = &Table{Schema: t.Schema.Clone(), Rows: t.Rows}
		out.order = append(out.order, n)
	}
	return out
}
