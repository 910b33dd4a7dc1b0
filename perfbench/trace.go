package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/sqldb"
)

// span is one benchmark-side span around a call into a layer of the
// program. Spans of one job share Job.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     int64  `json:"job"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out once, when the run ends. A nil tracer records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves a span id, so children can name their parent before
// the parent ends.
func (t *tracer) begin() int {
	if t == nil {
		return 0
	}
	return int(t.nextID.Add(1))
}

// add records a completed span under a fresh id.
func (t *tracer) add(s span, start, end time.Time) {
	if t != nil {
		t.addAs(t.begin(), s, start, end)
	}
}

// addAs records a completed span under an id reserved by begin.
func (t *tracer) addAs(id int, s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.ID = id
	s.StartUS = start.Sub(t.epoch).Microseconds()
	s.DurUS = end.Sub(start).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSONL in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// selfUS sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func (t *tracer) selfUS() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.Name] += s.DurUS - covered(kids[s.ID], interval{s.StartUS, s.StartUS + s.DurUS})
	}
	return out
}

// count is the number of spans named name in job.
func (t *tracer) count(name string, job int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.Job == job {
			n++
		}
	}
	return n
}

// durUS is the duration of the first span named name in job.
func (t *tracer) durUS(name string, job int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.Job == job {
			return s.DurUS
		}
	}
	return 0
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs clipped to within.
func covered(ivs []interval, within interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, within.lo), min(iv.hi, within.hi)
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = within.lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// tracedExe wraps an application executable with one "app.exec" span
// per invocation.
type tracedExe struct {
	inner  app.Executable
	tr     *tracer
	parent int
	job    int64
}

func (e *tracedExe) Name() string { return e.inner.Name() }

func (e *tracedExe) Run(ctx context.Context, db *sqldb.Database) (*sqldb.Result, error) {
	start := time.Now()
	res, err := e.inner.Run(ctx, db)
	e.tr.add(span{Name: "app.exec", Parent: e.parent, Job: e.job}, start, time.Now())
	return res, err
}

// ConcurrentRunSafe forwards the wrapped executable's declaration, so
// the wrapper neither serializes a concurrent-safe application nor
// lets probes run an unsafe one concurrently.
func (e *tracedExe) ConcurrentRunSafe() bool {
	if r, ok := e.inner.(app.ConcurrencyReporter); ok {
		return r.ConcurrentRunSafe()
	}
	return true
}

// writeSpans stores the traced run's spans where the run's checkout
// keeps its build outputs.
func writeSpans(b *bench, tr *tracer) error {
	path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload.name, b.seed))
	b.meta["spans_file"] = path
	return tr.write(path)
}
