package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"unmasque/internal/sqldb"
)

func cachePath(t *testing.T) string {
	return filepath.Join(t.TempDir(), "probecache.log")
}

func openCache(t *testing.T, path string) *ProbeCache {
	t.Helper()
	pc, err := OpenProbeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func sampleResult() *sqldb.Result {
	return sqldb.RestoreResult(
		[]string{"o_orderkey", "revenue"},
		[]sqldb.Row{
			{sqldb.NewInt(7), sqldb.NewFloat(1234.5)},
			{sqldb.NewInt(9), sqldb.NewNull(sqldb.TFloat)},
		},
		false,
	)
}

func rowsEqual(t *testing.T, ctx string, got, want []sqldb.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d arity %d, want %d", ctx, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: row %d col %d: %#v != %#v", ctx, i, c, got[i][c], want[i][c])
			}
		}
	}
}

func resultsEqual(t *testing.T, ctx string, got, want *sqldb.Result) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", ctx, got, want)
	}
	if got == nil {
		return
	}
	if got.AggEmptyInput() != want.AggEmptyInput() {
		t.Fatalf("%s: aggEmptyInput %v != %v", ctx, got.AggEmptyInput(), want.AggEmptyInput())
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d columns, want %d", ctx, len(got.Columns), len(want.Columns))
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("%s: column %d = %q, want %q", ctx, i, got.Columns[i], want.Columns[i])
		}
	}
	rowsEqual(t, ctx, got.Rows, want.Rows)
}

func TestProbeCacheResultRoundTrip(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace(AppNamespace("tpch/Q3", 1))
	fp := sqldb.Fingerprint{1, 2, 3}
	want := sampleResult()

	if _, _, ok := ns.Get(fp); ok {
		t.Fatal("hit on empty cache")
	}
	ns.Put(fp, want, nil)
	res, err, ok := ns.Get(fp)
	if !ok || err != nil {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "same-handle", res, want)
	// Mutating the returned clone must not poison the cache.
	res.Rows[0][0] = sqldb.NewInt(999)
	res2, _, _ := ns.Get(fp)
	resultsEqual(t, "after-mutation", res2, want)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}

	// The outcome survives a restart.
	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("reloaded Len = %d, want 1", pc2.Len())
	}
	res, err, ok = pc2.Namespace(AppNamespace("tpch/Q3", 1)).Get(fp)
	if !ok || err != nil {
		t.Fatalf("reloaded get: ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "reloaded", res, want)
}

func TestProbeCacheErrorRoundTrip(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("app/x#seed=1")
	fpNoTable := sqldb.Fingerprint{1}
	fpApp := sqldb.Fingerprint{2}

	ns.Put(fpNoTable, nil, fmt.Errorf("exec: %w: part", sqldb.ErrNoSuchTable))
	ns.Put(fpApp, nil, errors.New("application rejected the instance"))
	pc.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	ns2 := pc2.Namespace("app/x#seed=1")
	res, err, ok := ns2.Get(fpNoTable)
	if !ok || res != nil {
		t.Fatalf("ok=%v res=%v", ok, res)
	}
	if !errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("classification lost across restart: %v", err)
	}
	if want := fmt.Sprintf("exec: %v: part", sqldb.ErrNoSuchTable); err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
	_, err, ok = ns2.Get(fpApp)
	if !ok || err == nil || errors.Is(err, sqldb.ErrNoSuchTable) {
		t.Fatalf("app error mangled: ok=%v err=%v", ok, err)
	}
	if err.Error() != "application rejected the instance" {
		t.Fatalf("message = %q", err.Error())
	}
}

func TestProbeCacheNamespacesAreDisjoint(t *testing.T) {
	pc := openCache(t, cachePath(t))
	defer pc.Close()
	fp := sqldb.Fingerprint{42}
	a := pc.Namespace(AppNamespace("enki/posts_by_tag", 1))
	b := pc.Namespace(AppNamespace("enki/posts_by_tag", 2)) // different seed
	a.Put(fp, sampleResult(), nil)
	if _, _, ok := b.Get(fp); ok {
		t.Fatal("namespaces leak: same fingerprint visible across seeds")
	}
	if _, _, ok := a.Get(fp); !ok {
		t.Fatal("own namespace missed")
	}
}

func TestProbeCachePutIsIdempotent(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("n")
	fp := sqldb.Fingerprint{5}
	want := sampleResult()
	ns.Put(fp, want, nil)
	ns.Put(fp, nil, errors.New("second writer must lose"))
	if pc.writes != 1 {
		t.Fatalf("writes = %d, want 1", pc.writes)
	}
	res, err, ok := ns.Get(fp)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	resultsEqual(t, "first-write-wins", res, want)
	pc.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("Len = %d after duplicate puts, want 1", pc2.Len())
	}
}

func TestProbeCacheTornTailTruncated(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	pc.Namespace("n").Put(sqldb.Fingerprint{1}, sampleResult(), nil)
	pc.Close()
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: garbage partial frame at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0xFF, 0x01})
	f.Close()

	pc2 := openCache(t, path)
	defer pc2.Close()
	if pc2.Len() != 1 {
		t.Fatalf("Len = %d after torn tail, want 1", pc2.Len())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("torn bytes survive: %d != %d", after.Size(), intact.Size())
	}
	if _, _, ok := pc2.Namespace("n").Get(sqldb.Fingerprint{1}); !ok {
		t.Fatal("intact record lost during tail recovery")
	}
}

func TestProbeCacheDegradesToReadOnly(t *testing.T) {
	pc := openCache(t, cachePath(t))
	ns := pc.Namespace("n")
	ns.Put(sqldb.Fingerprint{1}, sampleResult(), nil)
	// Yank the log handle: the next append must fail, the cache must
	// keep serving memory hits, and Close must surface the failure.
	pc.f.Close()
	ns.Put(sqldb.Fingerprint{2}, nil, nil)
	if pc.err == nil {
		t.Fatal("append failure not recorded")
	}
	if _, _, ok := ns.Get(sqldb.Fingerprint{1}); !ok {
		t.Fatal("memory hit lost after degrade")
	}
	if err := pc.Close(); err == nil {
		t.Fatal("Close swallowed the sticky append error")
	}
}

// TestProbeCacheSkipsUnencodableOutcomes: an outcome the record
// format cannot hold (here a 70,000-byte column alias, 65,536 columns
// and a 65,536-value row, each past a u16 field) is not cached, leaves
// no record behind and does not make the cache read-only; the records
// around it survive a reopen.
func TestProbeCacheSkipsUnencodableOutcomes(t *testing.T) {
	path := cachePath(t)
	pc := openCache(t, path)
	ns := pc.Namespace("n")
	ns.Put(sqldb.Fingerprint{1}, sampleResult(), nil)
	wide := make(sqldb.Row, maxCacheU16+1)
	for i := range wide {
		wide[i] = sqldb.NewInt(int64(i))
	}
	unencodable := []*sqldb.Result{
		sqldb.RestoreResult([]string{strings.Repeat("a", 70000)}, []sqldb.Row{{sqldb.NewInt(1)}}, false),
		sqldb.RestoreResult(make([]string, maxCacheU16+1), nil, false),
		sqldb.RestoreResult([]string{"w"}, []sqldb.Row{wide}, false),
	}
	for i, res := range unencodable {
		ns.Put(sqldb.Fingerprint{2, byte(i)}, res, nil)
	}
	ns.Put(sqldb.Fingerprint{3}, sampleResult(), nil)
	if pc.err != nil {
		t.Fatalf("an unencodable outcome degraded the cache: %v", pc.err)
	}
	check := func(ctx string, pc *ProbeCache) {
		t.Helper()
		if pc.Len() != 2 {
			t.Fatalf("%s: Len = %d, want the 2 encodable records", ctx, pc.Len())
		}
		ns := pc.Namespace("n")
		for i := range unencodable {
			if _, _, ok := ns.Get(sqldb.Fingerprint{2, byte(i)}); ok {
				t.Fatalf("%s: unencodable outcome %d served", ctx, i)
			}
		}
		for _, fp := range []sqldb.Fingerprint{{1}, {3}} {
			res, err, ok := ns.Get(fp)
			if !ok || err != nil {
				t.Fatalf("%s: record %v: ok=%v err=%v", ctx, fp[0], ok, err)
			}
			resultsEqual(t, ctx, res, sampleResult())
		}
	}
	check("same handle", pc)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	pc2 := openCache(t, path)
	defer pc2.Close()
	check("reopened", pc2)
}

// TestProbeCacheOversizedCountTruncated: a CRC-valid record whose
// counts claim more than its bytes hold is truncated as torn on open
// instead of sizing an allocation from the garbage.
func TestProbeCacheOversizedCountTruncated(t *testing.T) {
	resultHeader := func(ncols uint16) []byte {
		b := append(make([]byte, sha256.Size), errKindNone, 0, 0, 0, 0, 1, 0)
		return binary.LittleEndian.AppendUint16(b, ncols)
	}
	corrupt := map[string][]byte{
		"row count":    binary.LittleEndian.AppendUint32(resultHeader(0), math.MaxUint32),
		"column count": resultHeader(math.MaxUint16),
		"row width": binary.LittleEndian.AppendUint16(
			binary.LittleEndian.AppendUint32(resultHeader(0), 1), math.MaxUint16),
	}
	for name, payload := range corrupt {
		t.Run(name, func(t *testing.T) {
			path := cachePath(t)
			pc := openCache(t, path)
			pc.Namespace("n").Put(sqldb.Fingerprint{1}, sampleResult(), nil)
			pc.Close()
			intact, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(f, payload); err != nil {
				t.Fatal(err)
			}
			f.Close()

			pc2 := openCache(t, path)
			defer pc2.Close()
			if pc2.Len() != 1 {
				t.Fatalf("Len = %d, want only the intact record", pc2.Len())
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != intact.Size() {
				t.Fatalf("corrupt record not truncated: %d bytes, want %d", after.Size(), intact.Size())
			}
		})
	}
}

// TestProbeCacheConcurrentPutGet: workers Put and Get overlapping
// fingerprints in two namespaces, each putting its own variant of
// every outcome. Every Get of a key returns the outcome of the key's
// first Put, the same one a reopen serves, and mutating a returned
// result leaves the next Get unchanged.
func TestProbeCacheConcurrentPutGet(t *testing.T) {
	const workers, keys = 8, 24
	path := cachePath(t)
	pc := openCache(t, path)
	namespaces := []string{"app/a#seed=1", "app/b#seed=1"}
	// variant is writer w's outcome for key k: the writer is in the row.
	variant := func(w, k int) *sqldb.Result {
		return sqldb.RestoreResult([]string{"w", "k"},
			[]sqldb.Row{{sqldb.NewInt(int64(w)), sqldb.NewInt(int64(k))}, {sqldb.NewText("x"), sqldb.NewNull(sqldb.TInt)}}, false)
	}
	// served[ns][k] is the digest the first Get of a key observed.
	var mu sync.Mutex
	served := make([]map[int]sqldb.ResultDigest, len(namespaces))
	for i := range served {
		served[i] = map[int]sqldb.ResultDigest{}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for _, k := range rng.Perm(keys) {
				ni := rng.Intn(len(namespaces))
				ns := pc.Namespace(namespaces[ni])
				fp := sqldb.Fingerprint{byte(k)}
				ns.Put(fp, variant(w, k), nil)
				res, err, ok := ns.Get(fp)
				if !ok || err != nil || len(res.Rows) != 2 || res.Rows[0][1] != sqldb.NewInt(int64(k)) {
					t.Errorf("worker %d key %d: ok=%v err=%v res=%v", w, k, ok, err, res)
					return
				}
				d := res.Digest()
				res.Rows[0][0] = sqldb.NewInt(-1)
				again, _, _ := ns.Get(fp)
				if again.Digest() != d {
					t.Errorf("worker %d key %d: mutating a returned result changed the cache", w, k)
				}
				mu.Lock()
				if first, seen := served[ni][k]; !seen {
					served[ni][k] = d
				} else if first != d {
					t.Errorf("worker %d key %d: Get served a later Put's outcome", w, k)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	pc2 := openCache(t, path)
	defer pc2.Close()
	total := 0
	for ni, name := range namespaces {
		for k, d := range served[ni] {
			res, _, ok := pc2.Namespace(name).Get(sqldb.Fingerprint{byte(k)})
			if !ok || res.Digest() != d {
				t.Fatalf("%s key %d: reopened cache serves another outcome (ok=%v)", name, k, ok)
			}
			total++
		}
	}
	if pc2.Len() != total {
		t.Fatalf("reopened Len = %d, want %d", pc2.Len(), total)
	}
}

func TestProbeCacheNilReceiverClose(t *testing.T) {
	var pc *ProbeCache
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppNamespaceFormat(t *testing.T) {
	if got := AppNamespace("tpch/Q3", 7); got != "app/tpch/Q3#seed=7" {
		t.Fatalf("AppNamespace = %q", got)
	}
}

// outcome is one application-execution outcome as the scheduler hands
// it to NSCache.Put.
type outcome struct {
	fp  sqldb.Fingerprint
	res *sqldb.Result
	err error
}

// outcomeServed checks that a Get answered with the recorded outcome:
// the same result (rows bit for bit, and so the same Result.Digest),
// the same error message and the same errors.Is class.
func outcomeServed(t *testing.T, ctx string, want outcome, res *sqldb.Result, err error) {
	t.Helper()
	resultsEqual(t, ctx, res, want.res)
	if res.Digest() != want.res.Digest() {
		t.Fatalf("%s: digest %s, want %s", ctx, res.Digest().Hex(), want.res.Digest().Hex())
	}
	if (err == nil) != (want.err == nil) {
		t.Fatalf("%s: err = %v, want %v", ctx, err, want.err)
	}
	if err == nil {
		return
	}
	if err.Error() != want.err.Error() {
		t.Fatalf("%s: message %q, want %q", ctx, err.Error(), want.err.Error())
	}
	if errors.Is(err, sqldb.ErrNoSuchTable) != errors.Is(want.err, sqldb.ErrNoSuchTable) {
		t.Fatalf("%s: ErrNoSuchTable class of %v lost", ctx, err)
	}
}

// goldenOutcomes are the three records testdata/probecache.log holds,
// in append order, all under goldenNS. The file was written by an
// earlier version of this package and pins the on-disk format across
// versions: never regenerate it. A format change needs a new fixture
// and a migration for the -cache-dir logs already written.
const goldenNS = "app/enki/posts_by_tag#seed=1"

// goldenDigest is the Result.Digest of the first golden record, as
// computed when the fixture was written.
const goldenDigest = "ba9ca68581d91343bb1b5db407f2df440fea1e9c625b4ece78ad09dbc8cef5b1"

func goldenOutcomes() []outcome {
	return []outcome{
		{fp: sqldb.Fingerprint{1}, res: sqldb.RestoreResult(
			[]string{"id", "score", "title", "posted", "featured", "note"},
			[]sqldb.Row{
				{sqldb.NewInt(42), sqldb.NewFloat(-0.125), sqldb.NewText("naïve tag"), sqldb.NewDate(19000), sqldb.NewBool(true), sqldb.NewNull(sqldb.TText)},
				{sqldb.NewInt(-7), sqldb.NewFloat(1234.5), sqldb.NewText(""), sqldb.NewDate(-3), sqldb.NewBool(false), sqldb.NewNull(sqldb.TFloat)},
			},
			true,
		)},
		{fp: sqldb.Fingerprint{2}, err: fmt.Errorf("exec: %w: tags", sqldb.ErrNoSuchTable)},
		{fp: sqldb.Fingerprint{3}, err: errors.New("posts_by_tag: application rejected the instance")},
	}
}

func TestProbeCacheGoldenLog(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "probecache.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Open a copy: OpenProbeCache opens its log read-write.
	path := cachePath(t)
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	pc := openCache(t, path)
	defer pc.Close()
	want := goldenOutcomes()
	if pc.Len() != len(want) {
		t.Fatalf("golden log loads %d records, want %d", pc.Len(), len(want))
	}
	if AppNamespace("enki/posts_by_tag", 1) != goldenNS {
		t.Fatalf("AppNamespace no longer yields the golden namespace %q", goldenNS)
	}
	ns := pc.Namespace(goldenNS)
	for i, rec := range want {
		res, err, ok := ns.Get(rec.fp)
		if !ok {
			t.Fatalf("golden record %d not served", i)
		}
		outcomeServed(t, fmt.Sprintf("golden record %d", i), rec, res, err)
	}
	if got := want[0].res.Digest().Hex(); got != goldenDigest {
		t.Fatalf("golden result digests to %s, want %s", got, goldenDigest)
	}

	// The write side: appending the same outcomes to a fresh log must
	// reproduce the fixture byte for byte.
	fresh := cachePath(t)
	pc2 := openCache(t, fresh)
	ns2 := pc2.Namespace(goldenNS)
	for _, rec := range want {
		ns2.Put(rec.fp, rec.res, rec.err)
	}
	if err := pc2.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("probe-cache log format changed: wrote %d bytes, fixture has %d", len(written), len(golden))
	}
}

// randomOutcome draws a result of random shape (every value type,
// typed NULLs) or one of the two persisted error classes.
func randomOutcome(rng *rand.Rand) outcome {
	var o outcome
	rng.Read(o.fp[:])
	switch rng.Intn(4) {
	case 0:
		o.err = fmt.Errorf("exec: %w: t%d", sqldb.ErrNoSuchTable, rng.Intn(100))
		return o
	case 1:
		o.err = fmt.Errorf("app error %d", rng.Intn(100))
		return o
	}
	ncols := 1 + rng.Intn(4)
	types := []sqldb.Type{sqldb.TInt, sqldb.TFloat, sqldb.TText, sqldb.TDate, sqldb.TBool}
	cols := make([]string, ncols)
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
	}
	rows := make([]sqldb.Row, rng.Intn(4))
	for i := range rows {
		row := make(sqldb.Row, ncols)
		for c := range row {
			typ := types[rng.Intn(len(types))]
			switch {
			case rng.Intn(5) == 0:
				row[c] = sqldb.NewNull(typ)
			case typ == sqldb.TFloat:
				row[c] = sqldb.NewFloat(rng.NormFloat64())
			case typ == sqldb.TText:
				row[c] = sqldb.NewText(fmt.Sprintf("v%d", rng.Intn(1000)))
			case typ == sqldb.TBool:
				row[c] = sqldb.NewBool(rng.Intn(2) == 0)
			default:
				row[c] = sqldb.Value{Typ: typ, I: rng.Int63n(40000) - 20000}
			}
		}
		rows[i] = row
	}
	o.res = sqldb.RestoreResult(cols, rows, rng.Intn(2) == 0)
	return o
}

// TestCrashRecoveryProperty cuts a probe-cache log written by a
// random run of Puts at every byte offset — every state a crash
// mid-append can leave on disk — and reopens it. The reopened cache
// must serve exactly the records completely written before the cut,
// each with its original outcome; truncate the torn remainder; and
// persist new appends after the recovered prefix.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	path := cachePath(t)
	w := openCache(t, path)
	var recs []outcome
	var ends []int64 // log size after each record
	for i := 0; i < 8; i++ {
		o := randomOutcome(rng)
		w.Namespace("n").Put(o.fp, o.res, o.err)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, o)
		ends = append(ends, fi.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	crashed := filepath.Join(t.TempDir(), "probecache.log")
	after := outcome{fp: sqldb.Fingerprint{0xFF}, res: sampleResult()}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(crashed, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact, good := 0, int64(0)
		for intact < len(ends) && ends[intact] <= int64(cut) {
			good = ends[intact]
			intact++
		}
		pc := openCache(t, crashed)
		ctx := fmt.Sprintf("cut %d/%d", cut, len(full))
		if pc.Len() != intact {
			t.Fatalf("%s: %d records recovered, want %d", ctx, pc.Len(), intact)
		}
		ns := pc.Namespace("n")
		for i, rec := range recs {
			res, err, ok := ns.Get(rec.fp)
			if ok != (i < intact) {
				t.Fatalf("%s: record %d served=%v, want %v", ctx, i, ok, i < intact)
			}
			if ok {
				outcomeServed(t, fmt.Sprintf("%s record %d", ctx, i), rec, res, err)
			}
		}
		fi, err := os.Stat(crashed)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != good {
			t.Fatalf("%s: log is %d bytes after recovery, want the %d-byte intact prefix", ctx, fi.Size(), good)
		}
		// The recovered log accepts appends, and they survive the
		// next restart.
		ns.Put(after.fp, after.res, after.err)
		if err := pc.Close(); err != nil {
			t.Fatalf("%s: close: %v", ctx, err)
		}
		pc = openCache(t, crashed)
		res, err, ok := pc.Namespace("n").Get(after.fp)
		if !ok || pc.Len() != intact+1 {
			t.Fatalf("%s: append after recovery lost (ok=%v len=%d)", ctx, ok, pc.Len())
		}
		outcomeServed(t, ctx+" append after recovery", after, res, err)
		pc.Close()
	}
}
