package core

import (
	"testing"
	"time"
)

func TestConfigValidation(t *testing.T) {
	ok := DefaultConfig()
	if err := ok.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero probe timeout", func(c *Config) { c.ProbeTimeout = 0 }},
		{"bad policy", func(c *Config) { c.HalvingPolicy = "fastest" }},
	}
	for _, cse := range cases {
		cfg := DefaultConfig()
		cse.mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("%s: expected validation error", cse.name)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HalvingPolicy = ""
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.HalvingPolicy != "largest" {
		t.Errorf("policy default: %q", cfg.HalvingPolicy)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := Stats{
		Total:        10 * time.Second,
		Sampling:     3 * time.Second,
		Partitioning: 2 * time.Second,
		Checker:      1 * time.Second,
	}
	if s.Minimizer() != 5*time.Second {
		t.Errorf("Minimizer = %v", s.Minimizer())
	}
	if s.Remaining() != 4*time.Second {
		t.Errorf("Remaining = %v", s.Remaining())
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestExtractionErrorWrapping(t *testing.T) {
	err := moduleErrf("filters", "bad column %s", "x")
	var extErr *ExtractionError
	ok := false
	if e, isExt := err.(*ExtractionError); isExt {
		extErr, ok = e, true
	}
	if !ok || extErr.Module != "filters" {
		t.Fatalf("module error shape: %v", err)
	}
	if moduleErr("m", nil) != nil {
		t.Error("moduleErr(nil) should be nil")
	}
}
