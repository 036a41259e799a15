package main

import (
	"fmt"
	"strings"

	"repro/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a seeded synthetic SWF trace,
// the cluster and fault settings it replays on, and its scheduling
// policy. Every workload measures the same two things, replays and
// what-ifs forked from states of the replay; the inputs decide which
// layers do the work. README.md records why each was chosen.
type workloadDef struct {
	name string
	jobs int
	// traces is how many independent traces of jobs each the workload
	// replays (0 means 1). Trace i of seed s is generated from seed
	// s*traces+i, so seeds never share a trace.
	traces int
	// hetero selects the 2-partition HeteroMN3 preset; otherwise the
	// trace runs on 4 homogeneous MN3 nodes.
	hetero           bool
	meanInterarrival float64 // 0 = the generator's default (~80% load)
	cancelRate       float64
	failRate         float64
	spill            bool
	nodeFaults       string
	mtbf, mttr       float64
	maxRequeues      int
	// policy is a policy name, or a per-partition set in the
	// `batch=easy,fat=malleable-shrink` grammar (replayed through
	// RunSchedSet).
	policy string
	// forkPoints is how many served states the what-ifs fork from,
	// spread evenly over the traces, and candidates how many jobs are
	// asked about at each. Every point holds a whole forked simulation,
	// so the 100k-job trace gets few points with many candidates; the
	// hetero traces get many points, whose states differ most. Points
	// times candidates is at least minCandidates.
	forkPoints, candidates int
}

var workloads = []workloadDef{
	{name: "replay-fcfs-100k", jobs: 100000, policy: "fcfs", forkPoints: 40, candidates: 25},
	{
		name: "hetero-faults-24x1000", jobs: 1000, traces: 24, hetero: true,
		meanInterarrival: 6, cancelRate: 0.05, failRate: 0.05,
		spill:       true,
		nodeFaults:  "node0:down@5000..8000+node4:down@20000..26000+node2:drain@40000..60000",
		mtbf:        20000,
		mttr:        1500,
		maxRequeues: 1,
		policy:      "batch=easy,fat=malleable-shrink",
		forkPoints:  600,
		candidates:  5,
	},
	{name: "whatif-4x10k", jobs: 10000, traces: 4, policy: "fcfs", forkPoints: 40, candidates: 25},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// faults reports whether the workload runs the node-fault model.
func (w workloadDef) faults() bool { return w.nodeFaults != "" || w.mtbf > 0 }

// isSet reports a per-partition policy set.
func (w workloadDef) isSet() bool { return strings.Contains(w.policy, "=") }

func (w workloadDef) traceCount() int { return max(w.traces, 1) }

// scenarios generates the workload's traces from the seed.
func (w workloadDef) scenarios(seed int64) ([]cluster.Scenario, error) {
	n := w.traceCount()
	scs := make([]cluster.Scenario, n)
	for i := range scs {
		sc, err := w.scenario(seed*int64(n) + int64(i))
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	return scs, nil
}

// scenario generates one trace from its seed. The fault stream's seed
// follows the trace seed.
func (w workloadDef) scenario(seed int64) (cluster.Scenario, error) {
	p := cluster.SyntheticSWF{
		Seed:             seed,
		Jobs:             w.jobs,
		MeanInterarrival: w.meanInterarrival,
		CancelRate:       w.cancelRate,
		FailRate:         w.failRate,
	}
	if w.hetero {
		p.Cluster = cluster.HeteroMN3()
	}
	sc, err := cluster.SyntheticSWFScenario(p)
	if err != nil {
		return sc, fmt.Errorf("generate %s trace: %w", w.name, err)
	}
	sc.Spill = w.spill
	sc.NodeFaults = w.nodeFaults
	sc.MTBF = w.mtbf
	sc.MTTR = w.mttr
	sc.MaxRequeues = w.maxRequeues
	if w.mtbf > 0 {
		sc.FaultSeed = seed
	}
	return sc, nil
}

// replay runs the whole trace through the public replay entry point
// with a fresh policy instance.
func (w workloadDef) replay(sc cluster.Scenario) (cluster.Result, error) {
	if w.isSet() {
		ps, err := cluster.ParseSchedPolicySet(w.policy)
		if err != nil {
			return cluster.Result{}, err
		}
		return cluster.RunSchedSet(sc, ps), nil
	}
	p, err := cluster.NewSchedPolicy(w.policy)
	if err != nil {
		return cluster.Result{}, err
	}
	return cluster.RunSched(sc, p), nil
}

// session opens the trace as a fork-capable session.
func (w workloadDef) session(sc cluster.Scenario) (*workload.Session, error) {
	if w.isSet() {
		ps, err := cluster.ParseSchedPolicySet(w.policy)
		if err != nil {
			return nil, err
		}
		return workload.NewSchedSetSession(sc, ps)
	}
	p, err := cluster.NewSchedPolicy(w.policy)
	if err != nil {
		return nil, err
	}
	return workload.NewSchedSession(sc, p)
}

// replayCounts are the deterministic outcomes of one replay. Two
// replays of the same trace by the same build must agree on every
// field exactly, traced or not.
type replayCounts struct {
	Jobs       int     `json:"jobs"`
	Events     int64   `json:"events"`
	Passes     int64   `json:"passes"` // controller cycle counter: one per partition pass
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	Cancelled  int     `json:"cancelled"`
	NodeFailed int     `json:"node_failed"`
	Spilled    int     `json:"spilled"`
	Requeues   int     `json:"requeues"`
	MeanRespS  float64 `json:"sim_mean_response_s"`
	MeanBSLD   float64 `json:"sim_mean_bsld"`
	RunTimeS   float64 `json:"sim_total_run_time_s"`
}

// checkReplay verifies a replay's records against its trace: every
// trace job appears exactly once, and each job's recorded outcome is
// one its trace annotation allows (a scancel'd job is cancelled, or
// completed when it finished before the scancel; a job annotated to
// fail fails with that outcome; anything may instead be lost to a node
// fault when the fault model is on). The per-record outcome tallies
// must match the workload's own counters. It returns the replay's
// deterministic counts.
func (w workloadDef) checkReplay(sc cluster.Scenario, res cluster.Result) (replayCounts, error) {
	var c replayCounts
	if res.Err != nil {
		return c, fmt.Errorf("replay: %w", res.Err)
	}
	recs := res.Records.Jobs
	byName := make(map[string]int, len(recs))
	for i := range recs {
		if _, dup := byName[recs[i].Name]; dup {
			return c, fmt.Errorf("job %s recorded twice", recs[i].Name)
		}
		byName[recs[i].Name] = i
	}
	if len(recs) != len(sc.Subs) {
		return c, fmt.Errorf("%d records for %d trace jobs", len(recs), len(sc.Subs))
	}
	for i := range sc.Subs {
		sub := &sc.Subs[i]
		ri, ok := byName[sub.Job.Name]
		if !ok {
			return c, fmt.Errorf("trace job %s has no record", sub.Job.Name)
		}
		got := recs[ri].Outcome
		switch got {
		case metrics.OutcomeCompleted:
			c.Completed++
		case metrics.OutcomeFailed:
			c.Failed++
		case metrics.OutcomeCancelled:
			c.Cancelled++
		case metrics.OutcomeNodeFailed:
			c.NodeFailed++
		}
		if got == metrics.OutcomeNodeFailed && w.faults() {
			continue
		}
		want := metrics.OutcomeCompleted
		switch {
		case sub.Cancel:
			want = metrics.OutcomeCancelled
			if got == metrics.OutcomeCompleted {
				want = got
			}
		case sub.Job.FailAfter > 0:
			want = sub.Job.FailOutcome
		}
		if got != want {
			return c, fmt.Errorf("job %s ended %v, trace says %v", sub.Job.Name, got, want)
		}
	}
	rec := res.Records
	if c.Failed != rec.Failed() || c.Cancelled != rec.Cancelled() || c.NodeFailed != rec.NodeFailed() {
		return c, fmt.Errorf("counters say failed/cancelled/node-failed %d/%d/%d, records %d/%d/%d",
			rec.Failed(), rec.Cancelled(), rec.NodeFailed(), c.Failed, c.Cancelled, c.NodeFailed)
	}
	st := cluster.SchedStatsOf(sc, res)
	c.Jobs = len(recs)
	c.Events = res.Events
	c.Passes = res.SchedCycles
	c.Spilled = rec.Spilled()
	c.Requeues = rec.Requeues()
	c.MeanRespS = st.MeanResponse
	c.MeanBSLD = st.MeanSlowdown
	c.RunTimeS = rec.TotalRunTime()
	return c, nil
}
