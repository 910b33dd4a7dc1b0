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
