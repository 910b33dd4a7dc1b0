package service_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unmasque/internal/core"
	"unmasque/internal/service"
)

// TestStoreTornTailRecovery is the crash-recovery contract: a log
// whose final record was half-written when the process died must
// reopen cleanly, discard exactly the torn tail, preserve every
// intact record, and leave the file valid for further appends.
func TestStoreTornTailRecovery(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")

	st, rec, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxID != 0 || len(rec.Jobs) != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh store recovered %+v, want empty", rec)
	}
	spec1 := inlineSpec("job-one")
	spec2 := inlineSpec("job-two")
	spec3 := inlineSpec("job-three")
	records := []service.Record{
		{ID: 1, State: service.StateQueued, Spec: &spec1},
		{ID: 2, State: service.StateQueued, Spec: &spec2},
		{ID: 1, State: service.StateRunning},
		{ID: 1, State: service.StateDone, SQL: "select a from t", Stats: &core.Stats{AppInvocations: 42}},
		{ID: 2, State: service.StateRunning},
		{ID: 3, State: service.StateQueued, Spec: &spec3},
	}
	for _, r := range records {
		if err := st.Append(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial record with no newline.
	torn := `{"type":"job","id":4,"sta`
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.TornBytes != int64(len(torn)) {
		t.Errorf("TornBytes = %d, want %d", rec2.TornBytes, len(torn))
	}
	if rec2.MaxID != 3 {
		t.Errorf("MaxID = %d, want 3", rec2.MaxID)
	}
	if len(rec2.Jobs) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(rec2.Jobs))
	}
	j1, j2, j3 := rec2.Jobs[0], rec2.Jobs[1], rec2.Jobs[2]
	if j1.ID != 1 || j1.State != service.StateDone || j1.SQL != "select a from t" || j1.Stats.AppInvocations != 42 {
		t.Errorf("job 1 recovered as %+v", j1)
	}
	if j1.Spec.Name != "job-one" {
		t.Errorf("job 1 spec lost: %+v", j1.Spec)
	}
	if j2.ID != 2 || j2.State != service.StateRunning || j2.State.Terminal() {
		t.Errorf("job 2 recovered as %+v, want non-terminal running", j2)
	}
	if j3.ID != 3 || j3.State != service.StateQueued {
		t.Errorf("job 3 recovered as %+v, want queued", j3)
	}

	// The truncated file must be positioned for appends: add a record,
	// reopen, and expect a clean (untorn) replay including it.
	if err := st2.Append(ctx, service.Record{ID: 4, State: service.StateQueued, Spec: &spec1}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TornBytes != 0 {
		t.Errorf("log torn again after truncation: %d bytes", rec3.TornBytes)
	}
	if rec3.MaxID != 4 || len(rec3.Jobs) != 4 {
		t.Errorf("after append: MaxID %d jobs %d, want 4 and 4", rec3.MaxID, len(rec3.Jobs))
	}
}

// TestStoreUnterminatedLineIsTorn: even a record that parses as
// complete JSON is torn if its newline never made it to disk — the
// append is atomic only once the terminator is durable.
func TestStoreUnterminatedLineIsTorn(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	spec := inlineSpec("whole-but-unterminated")

	st, _, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(ctx, service.Record{ID: 1, State: service.StateQueued, Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	whole := `{"type":"job","id":2,"state":"queued","ts_us":1}`
	if _, err := f.WriteString(whole); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := service.OpenStore(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != int64(len(whole)) {
		t.Errorf("TornBytes = %d, want %d", rec.TornBytes, len(whole))
	}
	if rec.MaxID != 1 || len(rec.Jobs) != 1 {
		t.Errorf("unterminated record survived replay: %+v", rec)
	}
}

// TestOpenStoreReadsOlderJobLog pins job-log compatibility across
// core.Stats field changes. testdata/jobs_parent.jsonl was written by
// a daemon whose Stats still carried the ExecMode field, the six
// fields of the removed bounded checker, SiloSetup and
// RowsAfterSampling: one done job with stats, one failed job, one job
// interrupted while running and one still queued behind it when the
// process was killed. Unknown
// fields must decode silently; a record that failed to decode would
// be treated as a torn tail and truncated along with every later job.
func TestOpenStoreReadsOlderJobLog(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "jobs_parent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(orig, []byte(`"ExecMode":"vector"`)) {
		t.Fatal("fixture no longer carries the removed Stats field")
	}
	if !bytes.Contains(orig, []byte(`"SiloSetup":`)) || !bytes.Contains(orig, []byte(`"RowsAfterSampling":`)) {
		t.Fatal("fixture no longer carries the removed SiloSetup and RowsAfterSampling Stats fields")
	}
	// Split so that a repository search for the removed identifier
	// matches only the fixture.
	if !bytes.Contains(orig, []byte(`"Bounded`+`Bound"`)) {
		t.Fatal("fixture no longer carries the removed bounded checker's Stats fields")
	}
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := service.OpenStore(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 || rec.MaxID != 4 || len(rec.Jobs) != 4 {
		t.Fatalf("recovered torn=%d max=%d jobs=%d, want 0, 4, 4", rec.TornBytes, rec.MaxID, len(rec.Jobs))
	}
	want := []struct {
		app   string
		state service.State
	}{
		{"enki/posts_by_tag", service.StateDone},
		{"tpch/H3", service.StateFailed},
		{"tpch/Q10", service.StateRunning},
		{"tpch/Q6", service.StateQueued},
	}
	for i, w := range want {
		j := rec.Jobs[i]
		if j.ID != int64(i+1) || j.Spec.App != w.app || j.State != w.state {
			t.Errorf("job %d: recovered id=%d app=%q state=%s, want id=%d app=%q state=%s",
				i+1, j.ID, j.Spec.App, j.State, i+1, w.app, w.state)
		}
	}

	done := rec.Jobs[0]
	if !strings.HasPrefix(done.SQL, "select posts.id, posts.title, posts.published_at\nfrom posts, tags, taggings") {
		t.Errorf("done job SQL not recovered: %q", done.SQL)
	}
	s := done.Stats
	if s.AppInvocations != 91 || s.CacheHits != 6 || s.CacheMisses != 85 || s.Workers != 2 ||
		s.RowsInitial != 878 || s.RowsFinal != 3 ||
		s.IndexBuilds != 6 || s.RangeBuilds != 6 || s.VectorBatches != 8 {
		t.Errorf("done job stats not recovered: %+v", s)
	}
	if failed := rec.Jobs[1]; !strings.Contains(failed.Err, "results differ") || failed.SQL != "" {
		t.Errorf("failed job recovered err=%q sql=%q", failed.Err, failed.SQL)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, orig) {
		t.Errorf("OpenStore rewrote the log: %d bytes before, %d after", len(orig), len(after))
	}
}
