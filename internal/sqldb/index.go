package sqldb

import (
	"sort"
	"sync/atomic"
)

// EngineStats aggregates engine-internal event counters. One instance
// is shared by a database and every clone derived from it, so the
// extractor's per-run numbers survive silo cloning. All fields are
// atomics: index builds happen lazily under concurrent Executes.
type EngineStats struct {
	IndexBuilds   atomic.Int64 // secondary hash indexes constructed
	IndexHits     atomic.Int64 // point lookups served by an index
	RangeBuilds   atomic.Int64 // sorted range indexes constructed
	RangeHits     atomic.Int64 // range probes served by an index
	JoinBuilds    atomic.Int64 // hash-join build sides constructed
	JoinReuses    atomic.Int64 // build sides served from the cache
	VectorQueries atomic.Int64 // Execute calls
	VectorBatches atomic.Int64 // column batches materialized
	CtxTicks      atomic.Int64 // cancellation cost-model ticks charged
}

// EngineCounters is a plain snapshot of EngineStats.
type EngineCounters struct {
	IndexBuilds   int64
	IndexHits     int64
	RangeBuilds   int64
	RangeHits     int64
	JoinBuilds    int64
	JoinReuses    int64
	VectorQueries int64
	VectorBatches int64
	CtxTicks      int64
}

// EngineCounters snapshots the engine counters shared by this
// database and all its clones. Callers interested in a single run
// should snapshot before and after and subtract.
func (db *Database) EngineCounters() EngineCounters {
	s := db.estats
	return EngineCounters{
		IndexBuilds:   s.IndexBuilds.Load(),
		IndexHits:     s.IndexHits.Load(),
		RangeBuilds:   s.RangeBuilds.Load(),
		RangeHits:     s.RangeHits.Load(),
		JoinBuilds:    s.JoinBuilds.Load(),
		JoinReuses:    s.JoinReuses.Load(),
		VectorQueries: s.VectorQueries.Load(),
		VectorBatches: s.VectorBatches.Load(),
		CtxTicks:      s.CtxTicks.Load(),
	}
}

// joinBuild is one cached hash-join build side: the map from join key
// to row ids, valid for exactly the (columns, selected row ids) pair
// it was built from. Row ids (not rows) are stored, so value
// mutations of non-key columns never stale an entry; row-set
// mutations invalidate everything via the table's mutation hooks.
type joinBuild struct {
	cols []int   // local column indexes forming the key
	sel  []int32 // the filtered row ids the map covers
	m    map[string][]int32
}

// maxJoinBuilds caps the per-table build cache (FIFO eviction). Probe
// workloads hammer a handful of join shapes per table; eight covers
// every query in the corpus with room to spare.
const maxJoinBuilds = 8

// invalidateIndexes drops all cached index/build state. Called by
// every row-set mutation (insert, truncate, sampling, row deletion,
// SetRows): row ids shift, so id-based caches cannot be remapped.
func (t *Table) invalidateIndexes() {
	t.idxMu.Lock()
	t.indexes = nil
	t.rindexes = nil
	t.builds = nil
	t.idxMu.Unlock()
}

// invalidateColumn drops cached state that keys on column ci. Value
// mutations (Set, SetAll, NegateColumn) leave row ids stable, so
// indexes and build sides over *other* columns stay valid — that is
// what lets join-key indexes survive the minimizer's filter probes,
// which rewrite candidate filter columns in place.
func (t *Table) invalidateColumn(ci int) {
	t.idxMu.Lock()
	if t.indexes != nil {
		delete(t.indexes, ci)
	}
	if t.rindexes != nil {
		delete(t.rindexes, ci)
	}
	if len(t.builds) > 0 {
		kept := t.builds[:0]
		for _, b := range t.builds {
			uses := false
			for _, c := range b.cols {
				if c == ci {
					uses = true
					break
				}
			}
			if !uses {
				kept = append(kept, b)
			}
		}
		t.builds = kept
	}
	t.idxMu.Unlock()
}

// hashIndexLocked returns column ci's hash index, building it if
// missing; built reports whether this call constructed it. Callers
// hold idxMu. Once built, an index map is never mutated again
// (invalidation only unlinks it from the table), which is what makes
// sharing it with clones safe.
func (t *Table) hashIndexLocked(ci int, es *EngineStats) (idx map[string][]int32, built bool) {
	idx, ok := t.indexes[ci]
	if ok {
		return idx, false
	}
	idx = make(map[string][]int32, len(t.Rows))
	for i, r := range t.Rows {
		if r[ci].Null {
			continue
		}
		k := r[ci].GroupKey()
		idx[k] = append(idx[k], int32(i))
	}
	if t.indexes == nil {
		t.indexes = map[int]map[string][]int32{}
	}
	t.indexes[ci] = idx
	es.IndexBuilds.Add(1)
	return idx, true
}

// pointLookup returns the ids of rows whose column ci equals the
// value with the given group key, building the secondary hash index
// on first use. The returned slice is owned by the index; callers
// must not mutate it.
func (t *Table) pointLookup(ci int, key string, es *EngineStats) []int32 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	idx, built := t.hashIndexLocked(ci, es)
	if !built {
		es.IndexHits.Add(1)
	}
	return idx[key]
}

// rangeIndex is a sorted secondary index over one column: the
// non-NULL values ordered ascending (stably, so row ids ascend within
// equal keys) with payload storage matching the column class —
// Compare() for these types is exactly payload order, which is what
// makes a binary-searched span equal to a scan's answer. Like the
// hash indexes, a built rangeIndex is immutable: invalidation unlinks
// it, so parent and clones can share one safely.
type rangeIndex struct {
	typ  Type
	ints []int64  // TInt/TDate/TBool payloads, sorted
	strs []string // TText payloads, sorted
	ids  []int32  // row ids parallel to the payloads
}

// rangeIndexable reports whether a column type supports a sorted
// index with scan-identical semantics. Floats are excluded for the
// same reason as in the hash index: -0.0 vs 0.0 and int/float
// widening make payload identity diverge from Compare.
func rangeIndexable(t Type) bool {
	return t == TInt || t == TDate || t == TBool || t == TText
}

// rangeBounds is a compiled one-column interval probe. Missing bounds
// (hasLo/hasHi false) are unbounded ends.
type rangeBounds struct {
	lo, hi         Value
	hasLo, hasHi   bool
	loIncl, hiIncl bool
}

// rangeIndexLocked returns column ci's range index, building it if
// missing. Callers hold idxMu and have checked rangeIndexable.
func (t *Table) rangeIndexLocked(ci int, es *EngineStats) (r *rangeIndex, built bool) {
	if r, ok := t.rindexes[ci]; ok {
		return r, false
	}
	typ := t.Schema.Columns[ci].Type
	r = &rangeIndex{typ: typ}
	for i, row := range t.Rows {
		v := row[ci]
		if v.Null {
			continue
		}
		r.ids = append(r.ids, int32(i))
		if typ == TText {
			r.strs = append(r.strs, v.S)
		} else {
			r.ints = append(r.ints, v.I)
		}
	}
	ord := make([]int, len(r.ids))
	for i := range ord {
		ord[i] = i
	}
	if typ == TText {
		sort.SliceStable(ord, func(a, b int) bool { return r.strs[ord[a]] < r.strs[ord[b]] })
	} else {
		sort.SliceStable(ord, func(a, b int) bool { return r.ints[ord[a]] < r.ints[ord[b]] })
	}
	ids := make([]int32, len(ord))
	for i, o := range ord {
		ids[i] = r.ids[o]
	}
	r.ids = ids
	if typ == TText {
		strs := make([]string, len(ord))
		for i, o := range ord {
			strs[i] = r.strs[o]
		}
		r.strs = strs
	} else {
		ints := make([]int64, len(ord))
		for i, o := range ord {
			ints[i] = r.ints[o]
		}
		r.ints = ints
	}
	if t.rindexes == nil {
		t.rindexes = map[int]*rangeIndex{}
	}
	t.rindexes[ci] = r
	es.RangeBuilds.Add(1)
	return r, true
}

// span returns the half-open position range [lo, hi) of entries
// satisfying the bounds.
func (r *rangeIndex) span(bnd rangeBounds) (int, int) {
	n := len(r.ids)
	lo, hi := 0, n
	if r.typ == TText {
		if bnd.hasLo {
			key := bnd.lo.S
			if bnd.loIncl {
				lo = sort.Search(n, func(i int) bool { return r.strs[i] >= key })
			} else {
				lo = sort.Search(n, func(i int) bool { return r.strs[i] > key })
			}
		}
		if bnd.hasHi {
			key := bnd.hi.S
			if bnd.hiIncl {
				hi = sort.Search(n, func(i int) bool { return r.strs[i] > key })
			} else {
				hi = sort.Search(n, func(i int) bool { return r.strs[i] >= key })
			}
		}
		return lo, hi
	}
	if bnd.hasLo {
		key := bnd.lo.I
		if bnd.loIncl {
			lo = sort.Search(n, func(i int) bool { return r.ints[i] >= key })
		} else {
			lo = sort.Search(n, func(i int) bool { return r.ints[i] > key })
		}
	}
	if bnd.hasHi {
		key := bnd.hi.I
		if bnd.hiIncl {
			hi = sort.Search(n, func(i int) bool { return r.ints[i] > key })
		} else {
			hi = sort.Search(n, func(i int) bool { return r.ints[i] >= key })
		}
	}
	return lo, hi
}

// rangeLookup returns the ids of rows whose column ci falls within
// the bounds, in ascending row-id order (scan order — the vector
// engine's emission order must match the tree engine's). The range
// index is built on first use.
func (t *Table) rangeLookup(ci int, bnd rangeBounds, es *EngineStats) []int32 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	r, built := t.rangeIndexLocked(ci, es)
	if !built {
		es.RangeHits.Add(1)
	}
	lo, hi := r.span(bnd)
	if lo >= hi {
		return nil
	}
	out := append([]int32(nil), r.ids[lo:hi]...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// shareIndexes builds (if necessary) the hash and range indexes for
// the given local columns on t and installs shared references on the
// freshly cloned dst, whose rows are id-for-id copies of t's. Sharing
// is safe because built index payloads are immutable — invalidation
// only unlinks them from a table, never mutates them — so parent and
// clone invalidate independently. This is how index advice amortizes
// one build across the minimizer's per-probe clones.
//
// A column that was built once and has since been invalidated is
// churning: the minimizer mutates the probed column before every
// clone, so eagerly rebuilding it here would cost a sort per probe
// for an index used at most once. Such columns are skipped — the
// planner prefers the sibling columns' still-valid indexes instead
// (chooseIndexPred), and a lookup that truly needs the churning
// column rebuilds lazily on the clone.
func (t *Table) shareIndexes(dst *Table, cols []int, es *EngineStats) {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for _, ci := range cols {
		if ci < 0 || ci >= len(t.Schema.Columns) {
			continue
		}
		_, hCached := t.indexes[ci]
		_, rCached := t.rindexes[ci]
		if !hCached && !rCached && t.advBuilt[ci] {
			continue
		}
		h, _ := t.hashIndexLocked(ci, es)
		if dst.indexes == nil {
			dst.indexes = map[int]map[string][]int32{}
		}
		dst.indexes[ci] = h
		if rangeIndexable(t.Schema.Columns[ci].Type) {
			r, _ := t.rangeIndexLocked(ci, es)
			if dst.rindexes == nil {
				dst.rindexes = map[int]*rangeIndex{}
			}
			dst.rindexes[ci] = r
		}
		if t.advBuilt == nil {
			t.advBuilt = map[int]bool{}
		}
		t.advBuilt[ci] = true
	}
}

// cachedIndex reports whether t already holds a built index able to
// answer the plan kind: the hash index for an equality lookup, the
// sorted range index otherwise. Used by the planner to prefer free
// lookups over index builds.
func (t *Table) cachedIndex(ci int, eq bool) bool {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if eq {
		_, ok := t.indexes[ci]
		return ok
	}
	_, ok := t.rindexes[ci]
	return ok
}

// joinBuildFor returns the hash-join build map for (cols, sel),
// reusing a cached build when an identical one exists. A hit requires
// the same key columns and the exact same selected row ids — compared
// elementwise, never by hash, so a stale or colliding entry can never
// be returned. sel must be immutable after the call (the vector
// engine builds a fresh selection per execution and never mutates it).
func (t *Table) joinBuildFor(cols []int, sel []int32, es *EngineStats) map[string][]int32 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for _, b := range t.builds {
		if intsEqual(b.cols, cols) && idsEqual(b.sel, sel) {
			es.JoinReuses.Add(1)
			return b.m
		}
	}
	m := make(map[string][]int32, len(sel))
	for _, ri := range sel {
		key, ok := joinKeyLocal(t.Rows[ri], cols)
		if !ok {
			continue // NULL join key never matches
		}
		m[key] = append(m[key], ri)
	}
	b := &joinBuild{cols: append([]int(nil), cols...), sel: sel, m: m}
	if len(t.builds) >= maxJoinBuilds {
		t.builds = append(t.builds[:0], t.builds[1:]...)
	}
	t.builds = append(t.builds, b)
	es.JoinBuilds.Add(1)
	return m
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
