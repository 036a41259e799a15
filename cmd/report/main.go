// Command report runs the complete evaluation and verifies every
// headline claim of the paper against the measured results, in the
// style of an artifact-evaluation script. It prints a PASS/FAIL table,
// optionally writes it as Markdown, and exits non-zero if any claim's
// direction fails.
//
// Usage:
//
//	report             # run and print
//	report -md REPORT.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/slurm"
	"repro/internal/version"
	"repro/internal/workload"
)

// claim is one verifiable statement from the paper.
type claim struct {
	ID       string
	Source   string // paper location
	Text     string
	Paper    string // the paper's number, textual
	Measured float64
	Unit     string
	Pass     bool
}

func main() {
	mdPath := flag.String("md", "", "write the report as Markdown to this file")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	ok, err := run(os.Stdout, *mdPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run evaluates every claim, writes the report to w and, when mdPath
// is set, to that file. ok is false when any claim's direction fails.
func run(w io.Writer, mdPath string) (ok bool, err error) {
	claims, err := evaluate()
	if err != nil {
		return false, err
	}
	out := render(claims)
	if _, err := io.WriteString(w, out); err != nil {
		return false, err
	}
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(out), 0o644); err != nil {
			return false, err
		}
	}
	for _, c := range claims {
		if !c.Pass {
			return false, nil
		}
	}
	return true, nil
}

func pct(v float64) float64 { return 100 * v }

// evaluate runs the experiments and checks the claims.
func evaluate() ([]claim, error) {
	var claims []claim
	add := func(id, source, text, paper string, measured float64, unit string, pass bool) {
		claims = append(claims, claim{ID: id, Source: source, Text: text,
			Paper: paper, Measured: measured, Unit: unit, Pass: pass})
	}

	conf := func(r, t int) apps.Config { return apps.Config{Ranks: r, Threads: t} }

	// --- UC1: NEST + Pils Conf. 2 ---
	serial, drom := workload.Compare(workload.UC1("nest", conf(2, 16), "pils", conf(2, 1), false))
	if serial.Err != nil || drom.Err != nil {
		return nil, fmt.Errorf("uc1: %v / %v", serial.Err, drom.Err)
	}
	gTotal := metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime())
	add("uc1-total", "§6.1/Fig.4", "DROM improves NEST+Pils total run time",
		"~5.9% avg", pct(gTotal), "%", gTotal > 0)

	ps, _ := serial.Records.Job("pils")
	pd, _ := drom.Records.Job("pils")
	gPils := metrics.Gain(ps.ResponseTime(), pd.ResponseTime())
	add("uc1-analytics", "§6.1/Fig.6", "Analytics response time collapses (wait→0)",
		"up to 96%", pct(gPils), "%", gPils > 0.75)

	ns, _ := serial.Records.Job("nest")
	nd, _ := drom.Records.Job("nest")
	pen := -metrics.Gain(ns.ResponseTime(), nd.ResponseTime())
	add("uc1-sim-penalty", "§6.1/Fig.6", "Simulator response penalty stays small",
		"0..4.2%", pct(pen), "%", pen >= 0 && pen < 0.10)

	gAvg := metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime())
	add("uc1-avg-resp", "§6.1/Fig.8", "Average response time improves",
		"37..48%", pct(gAvg), "%", gAvg > 0.30 && gAvg < 0.55)

	// --- UC1: NEST + STREAM ---
	serial, drom = workload.Compare(workload.UC1("nest", conf(2, 16), "stream", conf(2, 2), false))
	if serial.Err != nil || drom.Err != nil {
		return nil, fmt.Errorf("uc1 stream: %v / %v", serial.Err, drom.Err)
	}
	gTotal = metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime())
	add("uc1-stream-total", "§6.1/Fig.7", "NEST+STREAM total always better under DROM",
		"avg 1.84%, max 3.5%", pct(gTotal), "%", gTotal > 0)
	ss, _ := serial.Records.Job("stream")
	sd, _ := drom.Records.Job("stream")
	gStream := metrics.Gain(ss.ResponseTime(), sd.ResponseTime())
	add("uc1-stream-resp", "§6.1/Fig.7", "STREAM response time collapses",
		"−92%", pct(gStream), "%", gStream > 0.80)

	// --- UC1: CoreNeuron + STREAM (the paper's best total case) ---
	serial, drom = workload.Compare(workload.UC1("coreneuron", conf(2, 16), "stream", conf(2, 2), false))
	if serial.Err != nil || drom.Err != nil {
		return nil, fmt.Errorf("uc1 cn: %v / %v", serial.Err, drom.Err)
	}
	gTotal = metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime())
	add("uc1-cn-total", "§6.1/Fig.11", "CoreNeuron+STREAM total run time gain",
		"up to 8%", pct(gTotal), "%", gTotal > 0 && gTotal < 0.15)

	// --- UC2 ---
	serial, drom = workload.Compare(workload.UC2(false))
	if serial.Err != nil || drom.Err != nil {
		return nil, fmt.Errorf("uc2: %v / %v", serial.Err, drom.Err)
	}
	gTotal = metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime())
	add("uc2-total", "§6.2/Fig.13", "UC2 total run time improves",
		"2.5%", pct(gTotal), "%", gTotal > 0.01 && gTotal < 0.08)
	gAvg = metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime())
	add("uc2-avg-resp", "§6.2/Fig.15", "UC2 average response time improves",
		"10%", pct(gAvg), "%", gAvg > 0.05 && gAvg < 0.25)
	cn, _ := drom.Records.Job("coreneuron")
	add("uc2-hp-start", "§6.2", "High-priority job starts immediately under DROM",
		"starts at submission", cn.WaitTime(), "s wait", cn.WaitTime() < 1e-9)

	// --- Baselines ---
	over := workload.Run(workload.UC2(false), slurm.PolicyOversubscribe)
	if over.Err != nil {
		return nil, over.Err
	}
	add("baseline-oversub", "§2/§6.2", "Oversubscription worse than DROM (UC2 total)",
		"degrades performance", over.Records.TotalRunTime()-drom.Records.TotalRunTime(), "s slower",
		over.Records.TotalRunTime() > drom.Records.TotalRunTime())
	pre := workload.Run(workload.UC2(false), slurm.PolicyPreempt)
	if pre.Err != nil {
		return nil, pre.Err
	}
	add("baseline-preempt", "§2/§6.2", "Preemption worse than DROM (UC2 total)",
		"degrades performance", pre.Records.TotalRunTime()-drom.Records.TotalRunTime(), "s slower",
		pre.Records.TotalRunTime() > drom.Records.TotalRunTime())

	// --- Figure 5 mechanism ---
	res5, fig5, err := workload.Figure5()
	if err != nil {
		return nil, err
	}
	_ = res5
	busy, idle := 0.0, 0.0
	for i, p := range fig5.Series[0].Points {
		switch {
		case i < 4:
			busy += p.Y / 4
		case i < 15:
			idle += p.Y / 11
		}
	}
	add("fig5-imbalance", "§6.1/Fig.5", "Static partition: 4 threads absorb the removed chunk, rest idle",
		"threads 1-4 busy, others idle gaps", busy-idle, " util gap", busy > 0.95 && idle < 0.9)

	// --- Variability ---
	rep, err := workload.RunN(workload.UC1("nest", conf(2, 16), "pils", conf(2, 1), false),
		slurm.PolicyDROM, 3, 0.02)
	if err != nil {
		return nil, err
	}
	add("variability", "§6", "Run-to-run variability within the paper's CV",
		"CV ≤ 3.4%", pct(rep.CVTotal), "% CV", rep.CVTotal <= 0.034)

	return claims, nil
}

// render formats the claims as a Markdown table.
func render(claims []claim) string {
	var sb strings.Builder
	sb.WriteString("# Replication report\n\n")
	sb.WriteString("| claim | paper | measured | verdict |\n|---|---|---|---|\n")
	pass := 0
	for _, c := range claims {
		verdict := "FAIL"
		if c.Pass {
			verdict = "PASS"
			pass++
		}
		fmt.Fprintf(&sb, "| %s (%s): %s | %s | %.1f%s | %s |\n",
			c.ID, c.Source, c.Text, c.Paper, c.Measured, c.Unit, verdict)
	}
	fmt.Fprintf(&sb, "\n%d/%d claims reproduced.\n", pass, len(claims))
	return sb.String()
}
