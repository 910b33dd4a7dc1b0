package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"unmasque/internal/app"
	"unmasque/internal/core"
	"unmasque/internal/sqldb"
	"unmasque/internal/workloads/registry"
)

// jobObs is what the benchmark observed about one job.
type jobObs struct {
	job
	LatencyMS float64
	SQL       string
	OK        bool   // exit 0, or daemon state "done"
	Err       string // why the job was not OK
	ID        int64  // daemon job id
	// Stats are the job's core.Stats: from the in-process extraction,
	// or from the terminal record of the daemon's job store.
	Stats *core.Stats
}

// gateResult is the outcome of the correctness gate.
type gateResult struct {
	failed   int
	problems []string
	// buildMS is the time registry.Build took for each distinct job in
	// this process: D_I generation and witness planting.
	buildMS map[job]float64
}

// gate checks every job's output. For each distinct (app, seed) the
// extracted SQL must be byte-identical across repetitions, and running
// it on a freshly generated D_I must give the same result digest as
// running the application's executable there. A job that fails either
// check, or did not finish OK, counts as failed.
func gate(ctx context.Context, obs []jobObs) gateResult {
	byJob := map[job][]int{}
	var order []job
	for i, o := range obs {
		if _, seen := byJob[o.job]; !seen {
			order = append(order, o.job)
		}
		byJob[o.job] = append(byJob[o.job], i)
	}
	res := gateResult{buildMS: map[job]float64{}}
	bad := make([]bool, len(obs))
	for _, j := range order {
		idx := byJob[j]
		sql := ""
		for _, i := range idx {
			o := obs[i]
			switch {
			case !o.OK:
				bad[i] = true
				res.problems = append(res.problems, fmt.Sprintf("%s seed %d: %s", o.App, o.Seed, o.Err))
			case sql == "":
				sql = o.SQL
			case o.SQL != sql:
				bad[i] = true
				res.problems = append(res.problems, fmt.Sprintf("%s seed %d: extracted SQL differs between repetitions", o.App, o.Seed))
			}
		}
		if sql == "" {
			continue
		}
		ms, err := checkDigest(ctx, j, sql)
		res.buildMS[j] = ms
		if err != nil {
			for _, i := range idx {
				bad[i] = true
			}
			res.problems = append(res.problems, fmt.Sprintf("%s seed %d: %v", j.App, j.Seed, err))
		}
	}
	for _, b := range bad {
		if b {
			res.failed++
		}
	}
	sort.Strings(res.problems)
	return res
}

// checkDigest runs the application's executable and the extracted SQL
// on the same freshly generated D_I and compares their result digests.
// It returns how long building D_I took.
func checkDigest(ctx context.Context, j job, sql string) (float64, error) {
	start := time.Now()
	exe, db, err := registry.Build(j.App, j.Seed)
	buildMS := float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return buildMS, fmt.Errorf("building D_I: %w", err)
	}
	fresh := db.Clone()
	want, err := exe.Run(ctx, db)
	if err != nil {
		return buildMS, fmt.Errorf("running the application: %w", err)
	}
	extracted, err := app.NewSQLExecutable("extracted", sql)
	if err != nil {
		return buildMS, fmt.Errorf("extracted SQL does not parse: %w", err)
	}
	got, err := extracted.Run(ctx, fresh)
	if err != nil {
		return buildMS, fmt.Errorf("running the extracted SQL: %w", err)
	}
	if want.Digest() != got.Digest() && floatDigest(want) != floatDigest(got) {
		return buildMS, fmt.Errorf("extracted SQL gives result digest %.12s on D_I, the application %.12s",
			got.Digest().Hex(), want.Digest().Hex())
	}
	return buildMS, nil
}

// floatDigest is the result digest with every float rounded to nine
// significant digits. An extracted aggregate can be an algebraically
// equal rewrite of the hidden one (TPC-H Q1's sum_charge comes back as
// an expanded polynomial), whose float sum differs in the last bits.
func floatDigest(r *sqldb.Result) sqldb.ResultDigest {
	c := r.Clone()
	for _, row := range c.Rows {
		for i, v := range row {
			if v.Typ == sqldb.TFloat && !v.Null {
				row[i].F, _ = strconv.ParseFloat(strconv.FormatFloat(v.F, 'g', 9, 64), 64)
			}
		}
	}
	return c.Digest()
}

// summarize turns the observations and the gate into the report frame.
func summarize(obs []jobObs, g gateResult, metrics map[string]metric) *report {
	for i, p := range g.problems {
		if i == 10 {
			fmt.Printf("gate: ... %d more\n", len(g.problems)-10)
			break
		}
		fmt.Printf("gate: %s\n", p)
	}
	return &report{
		Correct:   g.failed == 0 && len(g.problems) == 0,
		Attempted: len(obs),
		Failed:    g.failed,
		Metrics:   metrics,
	}
}
