package main

import (
	"path/filepath"
	"strings"
	"testing"

	"edgerep/internal/journal"
	"edgerep/internal/server"
)

// TestRestartWithoutResumeRefused drives run in selfdrive mode on one
// journal directory: a second start without -resume must refuse the
// directory (starting a fresh engine on top of the old history would lose
// its acked decisions at the next recovery), and a start with -resume must
// continue the history so the journal ends up holding every decision.
func TestRestartWithoutResumeRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	cfg := runConfig{
		instance:  server.InstanceConfig{Seed: 1, Nodes: 30, Datasets: 12, Queries: 60, F: 5, K: 3},
		epochMax:  256,
		jdir:      dir,
		snapEvery: 100,
		noSync:    true,
		selfdrive: true,
		count:     300,
		pipeline:  64,
		driveSeed: 7,
		modelRate: 1000,
		meanHold:  30,
	}
	if err := run(cfg); err != nil {
		t.Fatalf("first start: %v", err)
	}

	err := run(cfg)
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("second start without -resume: got %v, want an error naming -resume", err)
	}

	cfg.resume = true
	cfg.count = 600
	if err := run(cfg); err != nil {
		t.Fatalf("start with -resume: %v", err)
	}
	st, err := journal.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 600 {
		t.Fatalf("journal holds %d records after 300 + 300 offers, want 600", len(st.Records))
	}
}
