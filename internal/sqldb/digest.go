package sqldb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
)

// ResultDigest is a content hash over a query/application result.
// The probe ledger records one per executable invocation so a stored
// trace can prove what every probe observed without retaining the
// rows themselves.
type ResultDigest [sha256.Size]byte

// Hex renders the digest as lower-case hex.
func (d ResultDigest) Hex() string { return hex.EncodeToString(d[:]) }

// Digest computes the content hash of the result: the column names,
// the empty-aggregate marker, and the multiset of rows. Rows are
// canonicalised with the same type-tagged value encoding as
// Database.Fingerprint (a NULL, an int 0 and an empty string all hash
// differently) and then sorted bytewise, so the digest is
// deliberately insensitive to row order — exactly like the
// extractor's result equality (EqualUnordered), which compares row
// multisets because only explicitly ordered queries pin a physical
// order. Unlike EqualUnordered, the digest hashes exact values (no
// float tolerance) and covers column names: it identifies content,
// not equivalence classes.
//
// A nil result digests to the zero digest.
func (r *Result) Digest() ResultDigest {
	var out ResultDigest
	if r == nil {
		return out
	}
	// Canonical row encoding: each row is framed into one shared slab,
	// then an index over the frames is sorted by frame bytes — a
	// multiset hash.
	slabBuf := getCanonBuf()
	slab := *slabBuf
	frames := make([]frameSpan, len(r.Rows))
	for i, row := range r.Rows {
		lo := len(slab)
		slab = appendCanonInt(slab, int64(len(row)))
		for _, v := range row {
			slab = appendCanonValue(slab, v)
		}
		frames[i] = frameSpan{lo, len(slab)}
	}
	slices.SortFunc(frames, func(a, b frameSpan) int {
		return bytes.Compare(slab[a.lo:a.hi], slab[b.lo:b.hi])
	})

	h := sha256.New()
	buf := getCanonBuf()
	b := *buf
	b = appendCanonInt(b, int64(len(r.Columns)))
	for _, col := range r.Columns {
		b = appendCanonStr(b, col)
	}
	if r.aggEmptyInput {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendCanonInt(b, int64(len(frames)))
	for _, f := range frames {
		b = appendCanonInt(b, int64(f.hi-f.lo))
		b = append(b, slab[f.lo:f.hi]...)
		b = flushCanon(h, b)
	}
	h.Write(b)
	*buf, *slabBuf = b, slab
	putCanonBuf(buf)
	putCanonBuf(slabBuf)
	h.Sum(out[:0])
	return out
}

// frameSpan locates one row frame in Digest's slab.
type frameSpan struct{ lo, hi int }
