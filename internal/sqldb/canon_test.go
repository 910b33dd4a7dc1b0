package sqldb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refCanonWriter is the io.Writer-based canonical encoder that
// Database.Fingerprint and Result.Digest used before they moved to the
// append-based encoder. It stays here as the reference the
// differential test holds both hashes to: every fingerprint, digest,
// probe-cache key and golden trace depends on these exact bytes.
type refCanonWriter struct {
	w       io.Writer
	scratch [8]byte
}

func (c *refCanonWriter) writeInt(i int64) {
	binary.LittleEndian.PutUint64(c.scratch[:], uint64(i))
	c.w.Write(c.scratch[:])
}

func (c *refCanonWriter) writeStr(s string) {
	c.writeInt(int64(len(s)))
	io.WriteString(c.w, s)
}

func (c *refCanonWriter) writeValue(v Value) {
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

// refFingerprint is Database.Fingerprint over refCanonWriter.
func refFingerprint(db *Database) Fingerprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h := sha256.New()
	c := &refCanonWriter{w: h}
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

// refDigest is Result.Digest over refCanonWriter.
func refDigest(r *Result) ResultDigest {
	var out ResultDigest
	if r == nil {
		return out
	}
	h := sha256.New()
	c := &refCanonWriter{w: h}
	c.writeInt(int64(len(r.Columns)))
	for _, col := range r.Columns {
		c.writeStr(col)
	}
	if r.aggEmptyInput {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	frames := make([][]byte, len(r.Rows))
	for i, row := range r.Rows {
		var buf bytes.Buffer
		rc := &refCanonWriter{w: &buf}
		rc.writeInt(int64(len(row)))
		for _, v := range row {
			rc.writeValue(v)
		}
		frames[i] = buf.Bytes()
	}
	sort.Slice(frames, func(i, j int) bool { return bytes.Compare(frames[i], frames[j]) < 0 })
	c.writeInt(int64(len(frames)))
	for _, f := range frames {
		c.writeInt(int64(len(f)))
		h.Write(f)
	}
	h.Sum(out[:0])
	return out
}

// canonTypes are the five value types; TUnknown appears only on
// untyped NULLs.
var canonTypes = []Type{TInt, TFloat, TText, TDate, TBool}

// randomCanonValue draws a value of type typ, biased towards the
// encodings' edge cases: typed NULLs, empty and long text, -0.0 and
// NaN payloads, extreme integers.
func randomCanonValue(rng *rand.Rand, typ Type) Value {
	if rng.Intn(6) == 0 {
		return NewNull(typ)
	}
	switch typ {
	case TText:
		switch r := rng.Intn(40); {
		case r < 8:
			return NewText("")
		case r == 8:
			// Longer than a chunk: the hashers flush mid-value.
			return NewText(strings.Repeat("x", canonChunk+rng.Intn(3*canonChunk)))
		}
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return NewText(string(b))
	case TFloat:
		specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
		switch rng.Intn(4) {
		case 0:
			return NewFloat(specials[rng.Intn(len(specials))])
		case 1:
			// A NaN with a random payload: the encoding hashes the bits.
			return NewFloat(math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x000fffffffffffff | rng.Uint64()&(1<<63)))
		}
		return NewFloat(rng.NormFloat64() * 1e6)
	case TBool:
		return NewBool(rng.Intn(2) == 0)
	default:
		if rng.Intn(4) == 0 {
			return Value{Typ: typ, I: []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)]}
		}
		return Value{Typ: typ, I: rng.Int63n(1<<40) - 1<<39}
	}
}

// randomCanonRows draws n rows over types; duplicates are frequent so
// the digest's multiset framing sees equal frames.
func randomCanonRows(rng *rand.Rand, types []Type, n int) []Row {
	rows := make([]Row, 0, n)
	for len(rows) < n {
		if len(rows) > 0 && rng.Intn(4) == 0 {
			rows = append(rows, rows[rng.Intn(len(rows))].Clone())
			continue
		}
		row := make(Row, len(types))
		for c, typ := range types {
			row[c] = randomCanonValue(rng, typ)
		}
		rows = append(rows, row)
	}
	return rows
}

// randomCanonDB builds a database of up to four tables, some empty,
// with random column types, precisions and text limits.
func randomCanonDB(t *testing.T, rng *rand.Rand) *Database {
	db := NewDatabase()
	for ti := 0; ti < 1+rng.Intn(4); ti++ {
		ncols := 1 + rng.Intn(6)
		types := make([]Type, ncols)
		schema := TableSchema{Name: "t" + string(rune('a'+ti))}
		for c := range types {
			types[c] = canonTypes[rng.Intn(len(canonTypes))]
			schema.Columns = append(schema.Columns, Column{
				Name:      "c" + string(rune('a'+c)),
				Type:      types[c],
				Precision: rng.Intn(5),
				MaxLen:    rng.Intn(1 << 20),
			})
		}
		if err := db.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		n := 0
		if rng.Intn(5) != 0 {
			n = rng.Intn(300)
		}
		// Rows are installed directly: the encoder must hash whatever a
		// table holds, including values Insert's coercion would round.
		db.tables[schema.Name].Rows = randomCanonRows(rng, types, n)
	}
	return db
}

// TestCanonEncodingMatchesReference holds Database.Fingerprint and
// Result.Digest byte-for-byte to the reference encoder over random
// databases and results.
func TestCanonEncodingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		db := randomCanonDB(t, rng)
		if got, want := db.Fingerprint(), refFingerprint(db); got != want {
			t.Fatalf("db %d: fingerprint %s, reference %s", i, got.Hex(), want.Hex())
		}

		ncols := rng.Intn(5)
		types := make([]Type, ncols)
		cols := make([]string, ncols)
		for c := range types {
			types[c] = canonTypes[rng.Intn(len(canonTypes))]
			cols[c] = strings.Repeat("k", rng.Intn(12))
		}
		res := RestoreResult(cols, randomCanonRows(rng, types, rng.Intn(200)), rng.Intn(3) == 0)
		if got, want := res.Digest(), refDigest(res); got != want {
			t.Fatalf("result %d: digest %s, reference %s", i, got.Hex(), want.Hex())
		}
	}
	var nilRes *Result
	if nilRes.Digest() != refDigest(nil) {
		t.Fatal("nil result digest differs from the reference")
	}
	if empty := NewDatabase(); empty.Fingerprint() != refFingerprint(empty) {
		t.Fatal("empty database fingerprint differs from the reference")
	}
	// Rows of different widths in one result (a malformed result is
	// still hashed, never rejected).
	ragged := RestoreResult([]string{"a"}, []Row{{NewInt(1), NewText("x")}, {}, {NewNull(TUnknown)}}, false)
	if ragged.Digest() != refDigest(ragged) {
		t.Fatal("ragged result digest differs from the reference")
	}
}
