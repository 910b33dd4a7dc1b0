package registry_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"unmasque/internal/workloads/registry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDatabaseFingerprintGolden pins every registered application's
// database instance D_I, witnesses included, at seeds 1–3: the
// fingerprint covers every table's schema and every row value in
// order. A generator change that shifts a single value or consumes
// its random source in a different order fails here, before it can
// silently change what the extraction benchmarks measure.
func TestDatabaseFingerprintGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range registry.Names() {
		for seed := int64(1); seed <= 3; seed++ {
			_, db, err := registry.Build(name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			fmt.Fprintf(&got, "%s %d %x\n", name, seed, db.Fingerprint())
		}
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("D_I fingerprint changed:\n got: %s\nwant: %s", gl[i], wl[i])
		}
	}
	t.Fatalf("D_I fingerprint list changed: %d lines, want %d", len(gl), len(wl))
}

// TestHavingEntries: exactly the Section 7 applications are marked
// for the having pipeline.
func TestHavingEntries(t *testing.T) {
	var marked []string
	for _, name := range registry.Names() {
		if e, _ := registry.Lookup(name); e.Having {
			marked = append(marked, name)
		}
	}
	if fmt.Sprint(marked) != "[tpch/H1 tpch/H2 tpch/H3]" {
		t.Errorf("having entries %v, want [tpch/H1 tpch/H2 tpch/H3]", marked)
	}
}
