package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var listed, defined []string
	for _, w := range loadBenchmarkFile(t).Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(defined, ",") {
		t.Errorf("BENCHMARK.json lists %v, the program defines %v", listed, defined)
	}
}

// TestWorkloadsAskEnoughCandidates checks that p99 over each workload's
// candidates keeps at least 10 of them beyond it.
func TestWorkloadsAskEnoughCandidates(t *testing.T) {
	for _, w := range workloads {
		if w.forkPoints%w.traceCount() != 0 || w.forkPoints*w.candidates < minCandidates {
			t.Errorf("%s: %d fork points over %d traces, %d candidates each; want whole points per trace and %d candidates",
				w.name, w.forkPoints, w.traceCount(), w.candidates, minCandidates)
		}
	}
}

// TestRunReportsEveryMetric runs a tiny workload untraced and traced
// and checks that each run passes its own checks and reports exactly
// the metrics BENCHMARK.json lists, with their units.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	f := loadBenchmarkFile(t)
	out := t.TempDir()
	for _, trace := range []bool{false, true} {
		want := f.EndToEnd
		if trace {
			want = f.PerLayer
		}
		b, err := newBench(tiny, options{workload: tiny.name, seed: 3, seconds: 1, trace: trace, out: out}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.run()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < minRounds*tiny.forkPoints*tiny.candidates {
			t.Errorf("trace=%v: correct=%v failed=%d attempted=%d", trace, rep.Correct, rep.Failed, rep.Attempted)
		}
		var got, exp []string
		for name, m := range rep.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace=%v: reported\n  %v\nBENCHMARK.json lists\n  %v", trace, got, exp)
		}
		var buf bytes.Buffer
		if err := rep.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 {
			t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", last)
		}
	}
}
