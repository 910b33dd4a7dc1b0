package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/obs"
	"unmasque/internal/sqldb"
)

// tablesDB builds n one-row tables t00, t01, ... in that schema order.
func tablesDB(t *testing.T, n int) (*sqldb.Database, []string) {
	t.Helper()
	db := sqldb.NewDatabase()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		if err := db.CreateTable(sqldb.TableSchema{
			Name:    names[i],
			Columns: []sqldb.Column{{Name: "id", Type: sqldb.TInt}},
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(names[i], sqldb.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db, names
}

// readingExe is an imperative executable over the tables names that
// reads the tables reads in that order and returns one row per table.
// When the tables of hang — and no others — are missing, it instead
// runs until its deadline, like a slow application.
func readingExe(names, reads, hang []string) app.Executable {
	hidden := map[string]bool{}
	for _, name := range hang {
		hidden[name] = true
	}
	fn := func(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
		stall := len(hang) > 0
		for _, name := range names {
			stall = stall && db.HasTable(name) != hidden[name]
		}
		if stall {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		res := &sqldb.Result{Columns: []string{"id"}}
		for _, name := range reads {
			tbl, err := db.Table(name)
			if err != nil {
				return nil, err
			}
			v, err := tbl.Get(0, "id")
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, sqldb.Row{v})
		}
		return res, nil
	}
	return app.NewImperativeExecutable("reader", fn, "")
}

// fromClauseRun is the observable outcome of one from-clause phase.
type fromClauseRun struct {
	tables []string
	err    error
	events []obs.ProbeEvent
	trace  []byte // stripped spans and ledger
}

// runFromClause runs only the from-clause phase, traced, as Extract
// would, under the given probe timeout.
func runFromClause(t *testing.T, exe app.Executable, db *sqldb.Database, workers int, timeout time.Duration) fromClauseRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.ProbeTimeout = timeout
	cfg.Tracer = obs.NewTracer("extract")
	cfg.Ledger = obs.NewLedger()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := newSession(context.Background(), exe, db, cfg)
	span := s.beginPhase("from-clause")
	err := s.extractFromClause()
	span.EndErr(err)
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, obs.RunHeader{App: exe.Name()}, s.tracer.Events(), s.ledger); err != nil {
		t.Fatal(err)
	}
	trace, err2 := obs.StripVolatile(buf.Bytes())
	if err2 != nil {
		t.Fatal(err2)
	}
	return fromClauseRun{tables: s.tables, err: err, events: s.ledger.Events(), trace: trace}
}

// TestFromClauseGroupTesting pins the from-clause's group testing.
//   - read-sets: on executables that read a random subset of 1–25
//     tables (none, one, all, scattered), T_E is exactly the tables
//     read, at most N−k probes run to completion, and the stripped
//     trace is the same for 1, 2 and 8 workers; an executable that
//     reads nothing still fails the phase.
//   - timeout: a left half whose probe times out counts as no fault,
//     but its right half is probed, not assumed to hold a query table.
func TestFromClauseGroupTesting(t *testing.T) {
	t.Run("read-sets", testFromClauseReadSets)
	t.Run("timeout", testFromClauseTimeout)
}

func testFromClauseReadSets(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tc struct {
		n     int
		reads []int // schema positions, in read order
	}
	var cases []tc
	for n := 1; n <= 25; n++ {
		all := rng.Perm(n)
		cases = append(cases,
			tc{n, nil},
			tc{n, all[:1]},
			tc{n, all},
			tc{n, all[:rng.Intn(n+1)]})
	}
	for _, c := range cases {
		db, names := tablesDB(t, c.n)
		var reads []string
		inReads := make([]bool, c.n)
		for _, i := range c.reads {
			reads = append(reads, names[i])
			inReads[i] = true
		}
		var want []string
		for i, name := range names {
			if inReads[i] {
				want = append(want, name)
			}
		}
		exe := readingExe(names, reads, nil)
		var first []byte
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("n=%d reads=%v workers=%d", c.n, reads, workers)
			run := runFromClause(t, exe, db, workers, DefaultConfig().ProbeTimeout)
			if len(want) == 0 {
				if run.err == nil || !strings.Contains(run.err.Error(), "no query tables detected") {
					t.Fatalf("%s: err %v, want no query tables detected", label, run.err)
				}
			} else if run.err != nil {
				t.Fatalf("%s: %v", label, run.err)
			}
			if !reflect.DeepEqual(run.tables, want) {
				t.Fatalf("%s: T_E %v, want %v", label, run.tables, want)
			}
			completed := 0
			for _, ev := range run.events {
				if ev.Kind == obs.KindRename && ev.Err == "" {
					completed++
				}
			}
			if completed > c.n-len(want) {
				t.Fatalf("%s: %d probes completed, want at most N-k = %d", label, completed, c.n-len(want))
			}
			if first == nil {
				first = run.trace
			} else if !bytes.Equal(run.trace, first) {
				t.Fatalf("%s: stripped trace differs from workers=1:\n%s\nvs\n%s", label, run.trace, first)
			}
		}
	}
}

func testFromClauseTimeout(t *testing.T) {
	db, names := tablesDB(t, 8)
	left, right := names[:4], names[4:]
	for _, c := range []struct {
		name  string
		reads []string
		want  []string
	}{
		// The query table is in the right half: it is still found.
		{"query-table-right", []string{names[5]}, []string{names[5]}},
		// The only query table is in the timed-out left half: no table
		// may be inferred from the right half, which never faults.
		{"query-table-left", []string{names[1]}, nil},
	} {
		for _, workers := range []int{1, 8} {
			// Each run stalls once, for the whole timeout.
			run := runFromClause(t, readingExe(names, c.reads, left), db, workers, 100*time.Millisecond)
			if !reflect.DeepEqual(run.tables, c.want) {
				t.Fatalf("%s workers=%d: T_E %v, want %v", c.name, workers, run.tables, c.want)
			}
			if c.want == nil && (run.err == nil || !strings.Contains(run.err.Error(), "no query tables detected")) {
				t.Fatalf("%s workers=%d: err %v, want no query tables detected", c.name, workers, run.err)
			}
			timedOut, rightProbed := false, false
			for _, ev := range run.events {
				switch ev.Table {
				case strings.Join(left, ","):
					timedOut = strings.Contains(ev.Err, app.ErrTimeout.Error())
				case strings.Join(right, ","):
					rightProbed = true
				}
			}
			if !timedOut {
				t.Fatalf("%s workers=%d: the left half did not time out", c.name, workers)
			}
			if !rightProbed {
				t.Fatalf("%s workers=%d: the right half of a timed-out probe was not probed", c.name, workers)
			}
		}
	}
}
