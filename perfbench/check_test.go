package main

import (
	"path/filepath"
	"testing"

	"repro/cluster"
	"repro/internal/metrics"
	"repro/internal/schedd"
)

// tiny is a small family of overloaded, fault-annotated hetero traces:
// fast enough for unit tests, and it exercises every outcome the
// checks know.
var tiny = workloadDef{
	name: "tiny", jobs: 400, traces: 2, hetero: true,
	meanInterarrival: 6, cancelRate: 0.05, failRate: 0.05,
	spill: true, nodeFaults: "node0:down@500..800", mtbf: 20000, mttr: 1500, maxRequeues: 1,
	policy: "batch=easy,fat=malleable-shrink", forkPoints: 8, candidates: 5,
}

func tinyReplay(t *testing.T) (cluster.Scenario, cluster.Result) {
	t.Helper()
	sc, err := tiny.scenario(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tiny.replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc, res
}

func TestCheckReplayAcceptsReplay(t *testing.T) {
	sc, res := tinyReplay(t)
	c, err := tiny.checkReplay(sc, res)
	if err != nil {
		t.Fatal(err)
	}
	if c.Jobs != tiny.jobs || c.Completed+c.Failed+c.Cancelled+c.NodeFailed != c.Jobs {
		t.Errorf("counts do not add up: %+v", c)
	}
	if c.Failed == 0 || c.Cancelled == 0 {
		t.Errorf("tiny trace should fail and cancel jobs: %+v", c)
	}
}

func TestCheckReplayRejectsPerturbedRecords(t *testing.T) {
	sc, res := tinyReplay(t)
	recs := res.Records.Jobs
	for name, perturb := range map[string]func(w *metrics.Workload){
		"dropped record":   func(w *metrics.Workload) { w.Jobs = append([]metrics.JobRecord(nil), recs[1:]...) },
		"duplicate record": func(w *metrics.Workload) { w.Jobs = append(append([]metrics.JobRecord(nil), recs[1:]...), recs[2]) },
		"wrong outcome": func(w *metrics.Workload) {
			w.Jobs = append([]metrics.JobRecord(nil), recs...)
			for i := range w.Jobs {
				if w.Jobs[i].Outcome == metrics.OutcomeCompleted {
					w.Jobs[i].Outcome = metrics.OutcomeFailed
					return
				}
			}
		},
	} {
		bad := res
		bad.Records = *res.Records.Clone()
		perturb(&bad.Records)
		if _, err := tiny.checkReplay(sc, bad); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestExpectationsRejectPerturbedCount(t *testing.T) {
	sc, res := tinyReplay(t)
	c, err := tiny.checkReplay(sc, res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expect.json")
	e, err := loadExpectations(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.same("replay-0", c); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := e.same("schedd.sim_s_per_query", 12.5); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := e.save(); err != nil {
		t.Fatal(err)
	}
	e, err = loadExpectations(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.same("replay-0", c); err != nil {
		t.Errorf("same counts rejected: %v", err)
	}
	for _, perturb := range []func(*replayCounts){
		func(c *replayCounts) { c.Events++ },
		func(c *replayCounts) { c.Passes-- },
		func(c *replayCounts) { c.Requeues++ },
		func(c *replayCounts) { c.Spilled++ },
		func(c *replayCounts) { c.MeanRespS += 1e-9 },
	} {
		bad := c
		perturb(&bad)
		if err := e.same("replay-0", bad); err == nil {
			t.Errorf("perturbed counts %+v accepted", bad)
		}
	}
	if err := e.same("schedd.sim_s_per_query", 12.500000000000002); err == nil {
		t.Error("perturbed sim_s_per_query accepted")
	}
}

func TestCheckAnswer(t *testing.T) {
	early := answer{pred: schedd.WhatIf{Job: "j1", ForkedAt: 100, Start: 140, Wait: 10}}
	if err := checkAnswer(early, "j1", 100, 150, true); err == nil {
		t.Error("start before the replay's accepted without faults")
	}
	if err := checkAnswer(early, "j1", 100, 150, false); err != nil {
		t.Errorf("first start of a requeued job rejected under faults: %v", err)
	}
	good := answer{pred: schedd.WhatIf{Job: "j1", ForkedAt: 100, Start: 150, Wait: 20}}
	if err := checkAnswer(good, "j1", 100, 150, true); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*answer){
		"other job":          func(a *answer) { a.pred.Job = "j2" },
		"other fork":         func(a *answer) { a.pred.ForkedAt = 99 },
		"start too early":    func(a *answer) { a.pred.Start = 90 },
		"negative wait":      func(a *answer) { a.pred.Wait = -1 },
		"after the replay's": func(a *answer) { a.pred.Start = 151 },
	} {
		a := good
		mutate(&a)
		if err := checkAnswer(a, "j1", 100, 150, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
