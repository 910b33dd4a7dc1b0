package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"unmasque/internal/core"
	"unmasque/internal/storage"
)

// Store is the append-only durable job log: one JSONL record per
// state transition (the queued record carries the full spec, the
// terminal record the outcome), fsynced per append. A restarted
// daemon replays the log to recover its job history; Open discards a
// torn tail — a record half-written when the process died — by
// truncating the file back to the last intact line.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// Record is one JSONL line of the job log.
type Record struct {
	Type  string   `json:"type"` // always "job"
	ID    int64    `json:"id"`
	State State    `json:"state"`
	Spec  *JobSpec `json:"spec,omitempty"` // on the queued record
	SQL   string   `json:"sql,omitempty"`  // on the done record
	Err   string   `json:"err,omitempty"`  // on the failed record
	// Stats rides on terminal records of completed extractions.
	Stats *core.Stats `json:"stats,omitempty"`
	// TSUS is the wall-clock record time in microseconds since the
	// Unix epoch (diagnostic; recovery ignores it).
	TSUS int64 `json:"ts_us"`
}

// RecoveredJob is the replayed final snapshot of one job.
type RecoveredJob struct {
	ID    int64
	Spec  JobSpec
	State State
	SQL   string
	Err   string
	Stats core.Stats
}

// Recovery is what Open replayed from an existing log.
type Recovery struct {
	// Jobs holds one snapshot per job ID, in ID order. Jobs whose last
	// record was queued or running are not terminal: the manager must
	// re-queue them.
	Jobs []RecoveredJob
	// MaxID is the highest job ID seen; new IDs continue above it.
	MaxID int64
	// TornBytes is the size of the discarded torn tail (0 for a clean
	// log).
	TornBytes int64
}

// OpenStore opens (creating if absent) the job log at path, replays
// its records, truncates any torn tail, and returns the store
// positioned for appends. Torn-tail handling is the shared
// storage.RecoverTail discipline (also behind the storage probe
// cache): a record is intact when its line is newline-terminated
// and parses as a job record; the first broken line ends the replay
// and everything after it is truncated away — a crash mid-append can
// only damage the end of an append-only file.
func OpenStore(ctx context.Context, path string) (*Store, *Recovery, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: opening job store: %w", err)
	}
	byID := map[int64]*RecoveredJob{}
	var order []int64
	_, torn, err := storage.RecoverTail(f, func(r *bufio.Reader) (int64, error) {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// A final line without its newline is by definition
				// torn, whether or not it happens to parse.
				return 0, storage.ErrTornRecord
			}
			return 0, io.EOF
		}
		if err != nil {
			return 0, fmt.Errorf("service: reading job store: %w", err)
		}
		var rec Record
		if uerr := json.Unmarshal([]byte(line), &rec); uerr != nil || rec.Type != "job" || rec.ID <= 0 {
			return 0, storage.ErrTornRecord // damaged record: discard it and everything after
		}
		j, ok := byID[rec.ID]
		if !ok {
			j = &RecoveredJob{ID: rec.ID}
			byID[rec.ID] = j
			order = append(order, rec.ID)
		}
		j.State = rec.State
		if rec.Spec != nil {
			j.Spec = *rec.Spec
		}
		if rec.SQL != "" {
			j.SQL = rec.SQL
		}
		if rec.Err != "" {
			j.Err = rec.Err
		}
		if rec.Stats != nil {
			j.Stats = *rec.Stats
		}
		return int64(len(line)), nil
	})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	out := &Recovery{TornBytes: torn}
	for _, id := range order {
		if id > out.MaxID {
			out.MaxID = id
		}
		out.Jobs = append(out.Jobs, *byID[id])
	}
	return &Store{f: f, path: path}, out, nil
}

// Append writes one record and syncs it to stable storage.
func (s *Store) Append(ctx context.Context, rec Record) error {
	if s == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rec.Type = "job"
	enc, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encoding job record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(append(enc, '\n')); err != nil {
		return fmt.Errorf("service: appending job record: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("service: syncing job store: %w", err)
	}
	return nil
}

// Close releases the underlying file. Append after Close fails.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
