package main

import (
	"testing"

	"firmament"
)

// TestDefaultFlagsYieldDefaultConfig pins that firmament-serve run with no
// flags schedules with firmament.DefaultConfig(), the configuration the
// benchmark, the crash suites and the fingerprint suites exercise.
func TestDefaultFlagsYieldDefaultConfig(t *testing.T) {
	cfg, err := schedulerConfig(defaultMode)
	if err != nil {
		t.Fatalf("default -mode %q rejected: %v", defaultMode, err)
	}
	if want := firmament.DefaultConfig(); cfg != want {
		t.Fatalf("no-flag config %+v, want DefaultConfig() %+v", cfg, want)
	}
	if _, err := schedulerConfig("bogus"); err == nil {
		t.Fatal("unknown -mode accepted")
	}
}
