package sqldb

import "sync/atomic"

// EngineStats aggregates engine-internal event counters. One instance
// is shared by a database and every clone derived from it, so the
// extractor's per-run numbers survive silo cloning. All fields are
// atomics: index builds happen lazily under concurrent Executes.
type EngineStats struct {
	IndexBuilds   atomic.Int64 // secondary hash indexes constructed
	IndexHits     atomic.Int64 // point lookups served by an index
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
		JoinBuilds:    s.JoinBuilds.Load(),
		JoinReuses:    s.JoinReuses.Load(),
		VectorQueries: s.VectorQueries.Load(),
		VectorBatches: s.VectorBatches.Load(),
		CtxTicks:      s.CtxTicks.Load(),
	}
}

// joinBuild is one cached hash-join build side: the map from join key
// (appendJoinKey) to the bucket of row ids holding it, valid for
// exactly the (columns, selected row ids) pair it was built from. Row
// ids (not rows) are stored, so value mutations of non-key columns
// never stale an entry; row-set mutations invalidate everything via
// the table's mutation hooks.
type joinBuild struct {
	cols    []int   // local column indexes forming the key
	sel     []int32 // the filtered row ids the map covers
	keys    map[string]int32
	buckets [][]int32 // row ids per key, in selection order
}

// bucket returns the index of key's bucket, or -1 when no selected row
// holds key. It does not allocate.
func (b *joinBuild) bucket(key []byte) int32 {
	if i, ok := b.keys[string(key)]; ok {
		return i
	}
	return -1
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
	t.builds = nil
	t.idxMu.Unlock()
}

// invalidateColumn drops cached state that keys on column ci. Value
// mutations (Set, SetAll, NegateColumn) leave row ids stable, so
// indexes and build sides over *other* columns stay valid — that is
// what lets join-key indexes survive the filter module's probes,
// which rewrite candidate filter columns in place.
func (t *Table) invalidateColumn(ci int) {
	t.idxMu.Lock()
	if t.indexes != nil {
		delete(t.indexes, ci)
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

// pointLookup returns the ids of rows whose column ci equals the
// value with the given group key, building the secondary hash index
// on first use. The returned slice is owned by the index; callers
// must not mutate it. A built index map is never mutated again
// (invalidation only unlinks it from the table), so the slice stays
// valid after idxMu is released.
func (t *Table) pointLookup(ci int, key string, es *EngineStats) []int32 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	idx, ok := t.indexes[ci]
	if ok {
		es.IndexHits.Add(1)
		return idx[key]
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
	return idx[key]
}

// joinBuildFor returns the hash-join build side for (cols, sel),
// reusing a cached build when an identical one exists. A hit requires
// the same key columns and the exact same selected row ids — compared
// elementwise, never by hash, so a stale or colliding entry can never
// be returned. sel must be immutable after the call (the vector
// engine builds a fresh selection per execution and never mutates it).
func (t *Table) joinBuildFor(cols []int, sel []int32, es *EngineStats) *joinBuild {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	for _, b := range t.builds {
		if intsEqual(b.cols, cols) && idsEqual(b.sel, sel) {
			es.JoinReuses.Add(1)
			return b
		}
	}
	// Two passes: number the distinct keys and count their rows, then
	// lay every bucket out in one slab.
	keys := make(map[string]int32, len(sel))
	bucketOf := make([]int32, len(sel))
	var counts []int32
	var key []byte
	for k, ri := range sel {
		var ok bool
		key, ok = appendJoinKey(key[:0], t.Rows[ri], cols)
		if !ok {
			bucketOf[k] = -1 // NULL join key never matches
			continue
		}
		bk, seen := keys[string(key)]
		if !seen {
			bk = int32(len(counts))
			keys[string(key)] = bk
			counts = append(counts, 0)
		}
		counts[bk]++
		bucketOf[k] = bk
	}
	slab := make([]int32, len(sel))
	buckets := make([][]int32, len(counts))
	off := int32(0)
	for bk, n := range counts {
		buckets[bk] = slab[off : off : off+n]
		off += n
	}
	for k, ri := range sel {
		if bk := bucketOf[k]; bk >= 0 {
			buckets[bk] = append(buckets[bk], ri)
		}
	}
	b := &joinBuild{cols: append([]int(nil), cols...), sel: sel, keys: keys, buckets: buckets}
	if len(t.builds) >= maxJoinBuilds {
		t.builds = append(t.builds[:0], t.builds[1:]...)
	}
	t.builds = append(t.builds, b)
	es.JoinBuilds.Add(1)
	return b
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
