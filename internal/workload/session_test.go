package workload

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/sched"
	"repro/internal/slurm"
)

// sessionScenario is the seeded synthetic trace of the snapshot
// property tests: contended enough that every policy shrinks,
// backfills and skips.
func sessionScenario(t *testing.T, seed int64) Scenario {
	t.Helper()
	sc, err := SyntheticSWFScenario(SyntheticSWF{
		Seed: seed, Jobs: 200, Nodes: 4, MeanInterarrival: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	return sc
}

// TestStreamedSessionCannotFork: only a materialized scenario can
// fork; a session fed by a stream refuses, and still runs to the end.
func TestStreamedSessionCannotFork(t *testing.T) {
	gen := SyntheticSWF{Seed: 1, Jobs: 40, Nodes: 4}
	p, _ := sched.New("easy")
	sess, err := newSession(Scenario{}, gen.Source(), slurm.PolicyDROM, useSched(p))
	if err != nil {
		t.Fatal(err)
	}
	sess.RunUntil(500)
	if _, err := sess.Fork(); !errors.Is(err, errStreamFork) {
		t.Fatalf("Fork of a streamed session: err = %v, want %v", err, errStreamFork)
	}
	if _, err := sess.Snapshot(); !errors.Is(err, errStreamFork) {
		t.Fatalf("Snapshot of a streamed session: err = %v, want %v", err, errStreamFork)
	}
	res := sess.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Records.Count(); got != gen.Jobs {
		t.Fatalf("streamed session replayed %d jobs, want %d", got, gen.Jobs)
	}
}

// TestScenarioFieldsReachEveryEntryPoint: no entry point silently
// drops a Scenario field — the materialized replay honors ShmemDir,
// the streamed one Trace and LogProtocol.
func TestScenarioFieldsReachEveryEntryPoint(t *testing.T) {
	gen := SyntheticSWF{Seed: 3, Jobs: 30, Nodes: 2, MeanInterarrival: 25}
	sc, err := SyntheticSWFScenario(gen)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		run   func(dir string, p sched.Policy) Result
		check func(dir string, res Result) error
	}{
		{
			name: "RunSched/ShmemDir",
			run: func(dir string, p sched.Policy) Result {
				s := sc
				s.ShmemDir = dir
				return RunSched(s, p)
			},
			check: func(dir string, _ Result) error {
				segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
				if err != nil || len(segs) != 2 {
					return fmt.Errorf("segment files = %v (err=%v), want 2", segs, err)
				}
				return nil
			},
		},
		{
			name: "RunSchedStream/LogProtocol",
			run: func(_ string, p sched.Policy) Result {
				return RunSchedStream(Scenario{LogProtocol: true}, gen.Source(), p)
			},
			check: func(_ string, res Result) error {
				if len(res.Protocol) == 0 {
					return errors.New("no protocol events recorded")
				}
				return nil
			},
		},
		{
			name: "RunSchedStream/Trace",
			run: func(_ string, p sched.Policy) Result {
				return RunSchedStream(Scenario{Trace: true}, gen.Source(), p)
			},
			check: func(_ string, res Result) error {
				if res.Tracer == nil {
					return errors.New("no tracer on a traced run")
				}
				return nil
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			p, _ := sched.New("easy")
			res := c.run(dir, p)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if err := c.check(dir, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// errSource yields its submissions, then an error, and counts every
// Next call.
type errSource struct {
	listSource
	calls int
}

func (s *errSource) Next() (Submission, bool, error) {
	s.calls++
	if s.i >= len(s.subs) {
		return Submission{}, false, errors.New("broken trace")
	}
	return s.listSource.Next()
}

// TestFirstErrorStopsTheSource: the first failed submission or source
// error ends the stream — nothing after it is pulled or submitted, on
// the materialized and the streamed path alike.
func TestFirstErrorStopsTheSource(t *testing.T) {
	job := func(name string) slurm.Job {
		j, ok := anyMappedJob(name)
		if !ok {
			t.Fatal("helper produced no job")
		}
		return j
	}
	bad := job("bad")
	bad.Nodes = 99 // wider than the cluster: Submit rejects it
	subs := []Submission{{At: 10, Job: job("a")}, {At: 20, Job: bad}, {At: 30, Job: job("c")}}

	p, _ := sched.New("fcfs")
	mat := RunSched(Scenario{Nodes: 4, Subs: subs}, p)
	if mat.Err == nil || mat.Records.Count() != 1 {
		t.Errorf("materialized: err=%v, %d jobs; want the error and 1 job", mat.Err, mat.Records.Count())
	}
	src := &listSource{subs: subs}
	p, _ = sched.New("fcfs")
	str := RunSchedStream(Scenario{Nodes: 4}, src, p)
	if str.Err == nil || str.Records.Count() != 1 || src.i != 2 {
		t.Errorf("streamed: err=%v, %d jobs, %d pulled; want the error, 1 job, 2 pulled",
			str.Err, str.Records.Count(), src.i)
	}

	esrc := &errSource{listSource: listSource{subs: subs[:1]}}
	p, _ = sched.New("fcfs")
	res := RunSchedStream(Scenario{Nodes: 4}, esrc, p)
	if res.Err == nil || res.Records.Count() != 1 || esrc.calls != 2 {
		t.Errorf("source error: err=%v, %d jobs, %d Next calls; want the error, 1 job, 2 calls",
			res.Err, res.Records.Count(), esrc.calls)
	}
}

// TestSessionSnapshotRestoreFixedPoint: Snapshot() → Restore() →
// re-run must be a fixed point for metrics.SchedStats — restoring
// twice from one snapshot, and the snapshotted parent itself, all
// finish with the uninterrupted replay's exact statistics. Runs in
// the CI race matrix at -cpu 1,4,8.
func TestSessionSnapshotRestoreFixedPoint(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		sc := sessionScenario(t, seed)
		for _, name := range sched.Names() {
			p, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewSchedSession(sc, p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			bres := base.Run()
			if bres.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, bres.Err)
			}
			want := SchedStatsOf(sc, bres)

			p2, _ := sched.New(name)
			sess, err := NewSchedSession(sc, p2)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			sess.RunUntil(0.5 * bres.Records.TotalRunTime())
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatalf("seed %d %s: snapshot: %v", seed, name, err)
			}
			for round := 0; round < 2; round++ {
				restored, err := snap.Restore()
				if err != nil {
					t.Fatalf("seed %d %s: restore %d: %v", seed, name, round, err)
				}
				rres := restored.Run()
				if rres.Err != nil {
					t.Fatalf("seed %d %s: restore %d: %v", seed, name, round, rres.Err)
				}
				if got := SchedStatsOf(sc, rres); got != want {
					t.Errorf("seed %d %s: restore %d stats diverge:\n  got  %+v\n  want %+v",
						seed, name, round, got, want)
				}
			}
			pres := sess.Run()
			if pres.Err != nil {
				t.Fatalf("seed %d %s: parent: %v", seed, name, pres.Err)
			}
			if got := SchedStatsOf(sc, pres); got != want {
				t.Errorf("seed %d %s: snapshotted parent stats diverge:\n  got  %+v\n  want %+v",
					seed, name, got, want)
			}
		}
	}
}
