package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestLedgerCanonicalOrder: the exported order is a pure function of
// the stable fields, not of arrival order; within one fingerprint the
// miss sorts before its hits.
func TestLedgerCanonicalOrder(t *testing.T) {
	l := NewLedger()
	// Arrival order deliberately scrambled relative to canonical.
	l.Record(ProbeEvent{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "ab", Cache: CacheHit, Worker: 2})
	l.Record(ProbeEvent{Phase: "from-clause", PhaseSeq: 1, Kind: KindRename, Table: "orders", Cache: CacheBypass})
	l.Record(ProbeEvent{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "ab", Cache: CacheMiss, Worker: 1})
	l.Record(ProbeEvent{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "aa", Cache: CacheMiss})
	l.Record(ProbeEvent{Phase: "from-clause", PhaseSeq: 1, Kind: KindRename, Table: "nation", Cache: CacheBypass})

	evs := l.Events()
	if l.Len() != 5 || len(evs) != 5 {
		t.Fatalf("len = %d/%d, want 5", l.Len(), len(evs))
	}
	got := make([]string, len(evs))
	for i, e := range evs {
		got[i] = e.Phase + "/" + e.Table + e.FP + "/" + e.Cache
	}
	want := []string{
		"from-clause/nation/bypass",
		"from-clause/orders/bypass",
		"filters/aa/miss",
		"filters/ab/miss", // miss before hit within one fingerprint
		"filters/ab/hit",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical order wrong at %d:\ngot  %v\nwant %v", i, got, want)
		}
	}
	// Arrival order survives in the volatile Seq stamps.
	if evs[4].Seq != 0 || evs[2].Seq != 3 {
		t.Errorf("arrival stamps wrong: hit.Seq=%d aa.Seq=%d", evs[4].Seq, evs[2].Seq)
	}
}

// TestLedgerWriteAndStrip: WriteJSONL output validates; stripping
// zeroes exactly the volatile fields so two scrambled recordings of
// the same workload strip to identical bytes.
func TestLedgerWriteAndStrip(t *testing.T) {
	mk := func(order []int) []byte {
		events := []ProbeEvent{
			{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "ab", Cache: CacheMiss, Digest: "cd", Rows: 1},
			{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "ab", Cache: CacheHit, Digest: "cd", Rows: 1},
			{Phase: "filters", PhaseSeq: 4, Kind: KindExec, FP: "ff", Cache: CacheMiss, Err: "boom"},
		}
		l := NewLedger()
		for _, i := range order {
			e := events[i]
			e.Worker = i + 1 // scheduling noise
			e.DurUS = int64(100 * (i + 1))
			l.Record(e)
		}
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := mk([]int{0, 1, 2})
	b := mk([]int{2, 1, 0})

	if bytes.Equal(a, b) {
		t.Fatal("raw ledgers compare equal; volatile stamps missing from the fixture")
	}
	sa, err := StripVolatile(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := StripVolatile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatalf("stripped ledgers differ:\n%s\nvs\n%s", sa, sb)
	}
	if strings.Contains(string(sa), `"worker":1`) || strings.Contains(string(sa), `"dur_us":100`) {
		t.Error("volatile fields survived stripping")
	}
}

// TestStripVolatileRejectsGarbage: unknown types and non-JSON lines
// are errors, not silently passed through.
func TestStripVolatileRejectsGarbage(t *testing.T) {
	if _, err := StripVolatile([]byte(`{"type":"mystery"}`)); err == nil {
		t.Error("unknown event type accepted")
	}
	if _, err := StripVolatile([]byte(`not json`)); err == nil {
		t.Error("non-JSON line accepted")
	}
	// The run header's workers field is scheduling configuration and
	// must strip away.
	out, err := StripVolatile([]byte(`{"type":"run","app":"q1","workers":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), "workers") {
		t.Errorf("workers survived stripping: %s", out)
	}
}

// TestLedgerConcurrentRecord: concurrent records are all retained
// (run under -race in CI).
func TestLedgerConcurrentRecord(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Record(ProbeEvent{Phase: "p", PhaseSeq: 1, Kind: KindExec, Cache: CacheMiss, Worker: i})
		}(i)
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("lost events: %d of %d", l.Len(), n)
	}
	// Arrival stamps are a permutation of 0..n-1.
	seen := map[int64]bool{}
	for _, e := range l.Events() {
		seen[e.Seq] = true
	}
	if len(seen) != n {
		t.Fatalf("arrival stamps collide: %d distinct of %d", len(seen), n)
	}
}

// TestLedgerNilSafety: a nil ledger swallows records.
func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	l.Record(ProbeEvent{Phase: "p"})
	if l.Len() != 0 || l.Events() != nil {
		t.Error("nil ledger retained state")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil ledger write: %v", err)
	}
}

// TestWriteTraceValidates: a full trace (header + spans + ledger)
// passes the schema validator and its summary counts line up.
func TestWriteTraceValidates(t *testing.T) {
	tr := NewTracer("extract")
	ph := tr.Root().Child("from-clause", SeqAuto)
	ph.Child("probe", 0).End()
	ph.End()
	tr.Root().End()

	l := NewLedger()
	l.Record(ProbeEvent{Phase: "from-clause", PhaseSeq: 1, Kind: KindRename, Table: "t", Cache: CacheBypass, Err: "no such table"})
	l.Record(ProbeEvent{Phase: "filters", PhaseSeq: 2, Kind: KindExec, FP: "ab", Cache: CacheMiss, Digest: "cd", Rows: 2})
	l.Record(ProbeEvent{Phase: "filters", PhaseSeq: 2, Kind: KindExec, FP: "ab", Cache: CacheHit, Digest: "cd", Rows: 2})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, RunHeader{App: "q1", Workers: 4, Seed: 1}, tr.Events(), l); err != nil {
		t.Fatal(err)
	}
	sum, err := Validate(&buf)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if sum.Spans != 3 || sum.Probes != 3 || sum.Hits != 1 || sum.Executed() != 2 {
		t.Fatalf("summary wrong: %s", sum)
	}
	if len(sum.Apps) != 1 || sum.Apps[0] != "q1" {
		t.Fatalf("apps wrong: %v", sum.Apps)
	}
	if sum.ByPhase["filters"] != 2 {
		t.Fatalf("phase counts wrong: %v", sum.ByPhase)
	}
}
