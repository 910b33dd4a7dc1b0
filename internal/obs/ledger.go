package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Ledger accumulates ProbeEvents — one per executable invocation or
// cache hit — and writes them as JSONL in a canonical order. It is
// safe for concurrent Record calls; a nil *Ledger discards events.
//
// Events are buffered rather than streamed so that the on-disk order
// can be made deterministic: probes finish in scheduling order, which
// differs run to run, while the canonical order (sortEvents) is a
// pure function of the workload. The arrival order is preserved in
// each event's volatile Seq/TSUS fields, so offline auditing can
// reconstruct the actual execution timeline by re-sorting.
type Ledger struct {
	mu     sync.Mutex
	events []ProbeEvent
	start  time.Time
	sink   func(ProbeEvent)
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{start: time.Now()}
}

// SetSink installs a live-export hook: every Record also hands the
// stamped event to the sink, in arrival (not canonical) order. The
// sink runs outside the ledger lock; nil uninstalls. Nil-safe.
func (l *Ledger) SetSink(fn func(ProbeEvent)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Record appends one event, stamping its arrival order and timestamp.
// The caller fills every other field.
func (l *Ledger) Record(e ProbeEvent) {
	if l == nil {
		return
	}
	e.Type = TypeProbe
	l.mu.Lock()
	e.Seq = int64(len(l.events))
	e.TSUS = time.Since(l.start).Microseconds()
	l.events = append(l.events, e)
	fn := l.sink
	l.mu.Unlock()
	if fn != nil {
		fn(e)
	}
}

// Len reports the number of recorded events.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a canonically ordered copy of the recorded events.
func (l *Ledger) Events() []ProbeEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]ProbeEvent(nil), l.events...)
	l.mu.Unlock()
	sortEvents(out)
	return out
}

// WriteJSONL writes the events in canonical order, one JSON object
// per line.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	for _, e := range l.Events() {
		enc, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(enc, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrace writes a complete JSONL trace: the run header, the span
// events in their given (pre-order) sequence, then the ledger in
// canonical order. The result passes Validate; spans and ledger may
// each be empty/nil.
func WriteTrace(w io.Writer, h RunHeader, spans []SpanEvent, l *Ledger) error {
	h.Type = TypeRun
	enc := json.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return l.WriteJSONL(w)
}

// sortEvents orders events by their stable fields only: pipeline
// position first, then probe identity (kind, table, fingerprint),
// then outcome. Ties beyond these fields are events that are
// byte-identical after volatile stripping, so their relative order
// cannot affect the canonical ledger; the stable sort keeps arrival
// order among them.
func sortEvents(events []ProbeEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.PhaseSeq != b.PhaseSeq {
			return a.PhaseSeq < b.PhaseSeq
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.FP != b.FP {
			return a.FP < b.FP
		}
		if a.Cache != b.Cache {
			// "miss" sorts before "hit" so a fingerprint's ledger
			// entry group reads execute-then-reuse.
			return cacheRank(a.Cache) < cacheRank(b.Cache)
		}
		if a.Digest != b.Digest {
			return a.Digest < b.Digest
		}
		if a.Rows != b.Rows {
			return a.Rows < b.Rows
		}
		return a.Err < b.Err
	})
}

// cacheRank fixes the canonical order of cache outcomes.
func cacheRank(c string) int {
	switch c {
	case CacheMiss:
		return 0
	case CacheHit:
		return 1
	case CacheBypass:
		return 2
	default:
		return 3
	}
}
