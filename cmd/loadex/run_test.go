package main

import (
	"path/filepath"
	"testing"
)

// TestRunLiveChaosTraceValidates: live program cells fault and trace
// like in-process net cells — a delay-plan matrix on the live runtime
// records one trace per cell, and the offline validator accepts every
// one of them.
func TestRunLiveChaosTraceValidates(t *testing.T) {
	dir := t.TempDir()
	if err := runRun([]string{"-scenario", "quickstart", "-mech", "all", "-runtime", "live",
		"-chaos", "delay", "-spin", "200us", "-settle", "20ms", "-trace", dir}); err != nil {
		t.Fatal(err)
	}
	cells, err := filepath.Glob(filepath.Join(dir, "quickstart-*-live*", "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("%d live cell traces, want one per mechanism: %v", len(cells), cells)
	}
	if err := runValidate([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
}
