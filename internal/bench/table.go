// Package bench regenerates every table and figure of the paper's
// evaluation section (the per-experiment index lives in DESIGN.md).
// Each driver runs the relevant workload through the extractor (and,
// for Figure 8, the REGAL baseline), prints the paper-style rows or
// series as an aligned text table, and returns structured records so
// tests and the Go benchmarks can assert on shapes.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// TextTable accumulates rows and renders them column-aligned.
type TextTable struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends one row; values are stringified with %v.
func (t *TextTable) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote line.
func (t *TextTable) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *TextTable) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  * %s\n", n)
	}
}

// Snapshot is the JSON envelope benchrunner writes for machine
// consumers (one file per experiment).
type Snapshot struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	Generated  string `json:"generated"`
	Rows       any    `json:"rows"`
}

// EncodeSnapshot marshals one experiment's rows onto w. File placement
// is the caller's business (cmd/benchrunner): this package stays free
// of file I/O, like every non-storage library package (lint GL010).
func EncodeSnapshot(w io.Writer, experiment string, opt Options, rows any) error {
	snap := Snapshot{
		Experiment: experiment,
		Quick:      opt.Quick,
		Seed:       opt.Seed,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
