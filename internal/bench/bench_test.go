package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTextTableRendering(t *testing.T) {
	tbl := &TextTable{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tbl.Add("alpha", 1)
	tbl.Add("beta-long-name", 22.5)
	tbl.Note("footnote %d", 7)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Demo", "name", "beta-long-name", "footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table misses %q:\n%s", want, out)
		}
	}
	// Columns aligned: the header and first row start their second
	// column at the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 5 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

// TestQuickExperimentShapes runs the fast drivers end to end and
// asserts the paper shapes (skipped in -short mode; this is the
// harness's own integration test).
func TestQuickExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are not short")
	}
	opt := DefaultOptions()
	opt.Quick = true
	var buf bytes.Buffer

	t.Run("fig11-shape", func(t *testing.T) {
		points, err := Fig11(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 5 {
			t.Fatalf("expected 5 scale points, got %d", len(points))
		}
		// Quasi-linear growth: the largest instance must take longer
		// than the smallest for both series.
		first, last := points[0], points[len(points)-1]
		if last.Extraction <= first.Extraction/2 {
			t.Errorf("extraction does not grow with scale: %v -> %v", first.Extraction, last.Extraction)
		}
		if last.Rows <= first.Rows {
			t.Errorf("row counts not increasing: %d -> %d", first.Rows, last.Rows)
		}
	})

	t.Run("having-shape", func(t *testing.T) {
		rows, err := Having(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Err != nil {
				t.Errorf("%s: %v", r.Name, r.Err)
			}
		}
	})

	t.Run("parallel-shape", func(t *testing.T) {
		rows, err := Parallel(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no parallel measurements")
		}
		anyHits := false
		for _, r := range rows {
			if !r.SQLIdentical {
				t.Errorf("%s: sequential and concurrent extractions disagree on SQL", r.Query)
			}
			if r.Workers < 1 {
				t.Errorf("%s: resolved worker count %d", r.Query, r.Workers)
			}
			if r.ParInvocations > r.SeqInvocations {
				t.Errorf("%s: memoized run used more invocations (%d) than uncached (%d)",
					r.Query, r.ParInvocations, r.SeqInvocations)
			}
			if r.CacheHits > 0 {
				anyHits = true
				if r.ParInvocations >= r.SeqInvocations {
					t.Errorf("%s: %d cache hits but invocations not reduced (%d vs %d)",
						r.Query, r.CacheHits, r.ParInvocations, r.SeqInvocations)
				}
			}
		}
		if !anyHits {
			t.Error("no query recorded a single cache hit across the TPC-H suite")
		}
	})

	t.Run("service-shape", func(t *testing.T) {
		rows, err := Service(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("expected 2 worker-pool sizes in quick mode, got %d", len(rows))
		}
		for _, r := range rows {
			if !r.AllDone {
				t.Errorf("workers=%d: not every job reached done", r.Workers)
			}
			if !r.Invariant {
				t.Errorf("workers=%d: ledger invariant broken for some job", r.Workers)
			}
			if r.JobsPerSec <= 0 {
				t.Errorf("workers=%d: throughput %.2f jobs/sec", r.Workers, r.JobsPerSec)
			}
			if r.P50 > r.P99 {
				t.Errorf("workers=%d: p50 %dms > p99 %dms", r.Workers, r.P50, r.P99)
			}
		}
	})

	t.Run("trace-shape", func(t *testing.T) {
		rows, err := TraceProfile(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no phase rows")
		}
		var share float64
		byPhase := map[string]PhaseCost{}
		for _, r := range rows {
			share += r.Share
			byPhase[r.Phase] = r
			if r.Executed+r.Hits != r.Probes {
				t.Errorf("%s: executed %d + hits %d != probes %d", r.Phase, r.Executed, r.Hits, r.Probes)
			}
		}
		if share < 0.99 || share > 1.01 {
			t.Errorf("phase shares sum to %.3f, want ~1", share)
		}
		for _, want := range []string{"from-clause", "minimizer", "filters", "projection", "checker"} {
			if _, ok := byPhase[want]; !ok {
				t.Errorf("phase %q missing from the profile", want)
			}
		}
	})

	t.Run("schemascale-shape", func(t *testing.T) {
		res, err := SchemaScale(&buf, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Identified != res.QueryTables {
			t.Errorf("identified %d of %d tables", res.Identified, res.QueryTables)
		}
		if res.Elapsed > time.Minute {
			t.Errorf("from-clause took %v with %d tables", res.Elapsed, res.Tables)
		}
	})
}
