package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReportGolden pins the full output of `report` byte for byte: the
// measured value and verdict of every paper claim. Regenerate (only
// after an intentional model change) with:
//
//	go run ./cmd/report > cmd/report/testdata/report.golden
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	ok, err := run(&got, "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("a claim's direction failed")
	}
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("report diverged from the golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

func TestEvaluateAllClaimsPass(t *testing.T) {
	claims, err := evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 12 {
		t.Fatalf("only %d claims evaluated", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: measured %.2f%s (paper: %s)",
				c.ID, c.Measured, c.Unit, c.Paper)
		}
	}
}

func TestRenderFormat(t *testing.T) {
	claims := []claim{
		{ID: "a", Source: "§1", Text: "t", Paper: "p", Measured: 1.5, Unit: "%", Pass: true},
		{ID: "b", Source: "§2", Text: "u", Paper: "q", Measured: 2.5, Unit: "s", Pass: false},
	}
	out := render(claims)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Errorf("verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "1/2 claims reproduced") {
		t.Errorf("summary missing:\n%s", out)
	}
}
