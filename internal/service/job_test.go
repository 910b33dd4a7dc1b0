package service

import (
	"context"
	"testing"
	"time"
)

// TestTerminalJobHoldsNoStream: however a job ends — done, cancelled
// while running, cancelled while queued or by a hard drain — its
// rendered trace is its one telemetry record, and it keeps no live
// stream.
func TestTerminalJobHoldsNoStream(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	BlockJobsNamed(t, "slow")
	ctx := context.Background()
	m, err := Start(ctx, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(spec JobSpec) int64 {
		t.Helper()
		v, err := m.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	wait := func(id int64, want State) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			v, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.State == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %d never became %s", id, want)
	}

	wait(submit(JobSpec{App: "enki/posts_by_tag"}), StateDone)
	slow := submit(JobSpec{
		Name: "slow",
		Tables: []TableSpec{{
			Name: "t",
			Columns: []ColumnSpec{
				{Name: "a", Type: "int", Min: 1, Max: 100},
				{Name: "b", Type: "int", Min: 1, Max: 100},
			},
			PrimaryKey: []string{"a"},
			Rows:       [][]string{{"1", "10"}, {"2", "20"}, {"3", "30"}},
		}},
		SQL: "select a, b from t where b <= 20",
	})
	wait(slow, StateRunning)
	queued := submit(JobSpec{App: "enki/posts_by_tag", Seed: 2})
	if _, err := m.Cancel(ctx, queued); err != nil {
		t.Fatal(err)
	}
	submit(JobSpec{App: "enki/posts_by_tag", Seed: 3}) // queued until the drain
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.Drain(expired); err == nil {
		t.Fatal("hard drain reported a clean drain")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.jobs) != 4 {
		t.Fatalf("%d jobs, want 4", len(m.jobs))
	}
	for id, j := range m.jobs {
		if !j.state.Terminal() || j.trace == nil {
			t.Errorf("job %d ended %s with %d trace bytes", id, j.state, len(j.trace))
		}
		if j.stream != nil {
			t.Errorf("job %d (%s) keeps its live stream", id, j.state)
		}
	}
}
