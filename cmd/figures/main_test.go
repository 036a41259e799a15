package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunEachArtifact executes every artifact generator end to end
// (correctness of the numbers is pinned by TestFiguresGolden and
// asserted in internal/workload — here we guard the CLI wiring).
func TestRunEachArtifact(t *testing.T) {
	ids := []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}
	for _, id := range ids {
		if err := run(io.Discard, id); err != nil {
			t.Errorf("run(%q): %v", id, err)
		}
	}
}

// TestFiguresGolden pins the full output of `figures` byte for byte:
// every table, bar series and ASCII timeline of the paper's
// evaluation. Regenerate (only after an intentional model change)
// with:
//
//	go run ./cmd/figures > cmd/figures/testdata/figures.golden
func TestFiguresGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, ""); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("figures output diverged from the golden at line %d:\n  got  %q\n  want %q",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figures output length changed: got %d lines, want %d", len(gl), len(wl))
}

func TestRunUnknownIDIsNoop(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "zzz"); err != nil {
		t.Fatalf("unknown id should be a no-op, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("unknown id printed %q", out.String())
	}
}

func TestExportTracesToTempDir(t *testing.T) {
	outDir = t.TempDir()
	defer func() { outDir = "" }()
	if err := run(io.Discard, "fig5"); err != nil {
		t.Fatal(err)
	}
}
