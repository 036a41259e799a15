package workload

// Session is the package's one scenario driver. Run, RunSched,
// RunSchedSet and RunSchedStream(Set) are thin wrappers that open a
// Session and drain it; held open, it lets the caller advance virtual
// time incrementally (RunUntil), fork the whole simulation state at
// any instant, and keep both lineages running independently with
// byte-identical decisions. The schedd what-if service and the
// fork/replay test suites use it directly.
//
// Submissions come from a SubmissionSource, pulled one at a time.
// Those at t <= 0 go in synchronously at construction. Every later one
// is its own front-band event (sim.Engine.AtFront) clamped to the
// current time, and the next record is pulled only when it fires, so
// the event queue never holds more than one pending submission.
// Front-band events run before every regular event of their instant,
// so a stream in submit order decides exactly as if the whole trace
// had been scheduled before the clock started.
//
// A materialized Scenario is served by a private slice source; it is
// the only source a session can fork, by copying its cursor. Any other
// source is a stream: its job records are folded into aggregates
// (metrics.Workload.SetAggregate) so memory stays bounded by the
// cluster backlog, and Fork refuses it.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/trace"
)

// engineProbeEvery is the engine-heartbeat period (executed events)
// of probed runs: frequent enough to bound sampler staleness between
// scheduling cycles, rare enough to be free.
const engineProbeEvery = 1 << 16

// errStreamFork is Fork's answer for a session fed by a stream: the
// records already pulled from it cannot be replayed into a second
// lineage.
var errStreamFork = errors.New("workload: a streamed session cannot fork")

// sliceSource serves a materialized scenario's submissions in stable
// submit-time order. The slice is never mutated, so forks share it
// and copy only the cursor.
type sliceSource struct {
	subs []Submission
	i    int
}

// newSliceSource orders subs by submit time, ties in slice order. A
// trace already in order (the common case) is served in place.
func newSliceSource(subs []Submission) *sliceSource {
	byAt := func(s []Submission) func(a, b int) bool {
		return func(a, b int) bool { return s[a].At < s[b].At }
	}
	if !sort.SliceIsSorted(subs, byAt(subs)) {
		subs = append([]Submission(nil), subs...)
		sort.SliceStable(subs, byAt(subs))
	}
	return &sliceSource{subs: subs}
}

// Next implements SubmissionSource.
func (s *sliceSource) Next() (Submission, bool, error) {
	if s.i >= len(s.subs) {
		return Submission{}, false, nil
	}
	s.i++
	return s.subs[s.i-1], true, nil
}

// Session is an open scenario execution. Not safe for concurrent use;
// serialize access externally (see internal/schedd).
type Session struct {
	scn Scenario
	eng *sim.Engine
	ctl *slurm.Controller
	src SubmissionSource
	// next is the pulled submission whose front-band event nextEv is
	// pending (while pending is set); fire is the bound fireSub.
	next    Submission
	nextEv  sim.EventID
	pending bool
	fire    func()
	// cancels tracks the pending scancel events so a fork can re-bind
	// them; entries are dropped as the timers fire.
	cancels map[sim.EventID]string
	err     error
}

// NewSession opens a scenario under a policy with the given
// scheduling installer (nil for the legacy slurm.Policy paths; use
// NewSchedSession for the common case). At <= 0 submissions are
// delivered synchronously before this returns.
func NewSession(s Scenario, policy slurm.Policy, install func(*slurm.Controller) error) (*Session, error) {
	return newSession(s, newSliceSource(s.Subs), policy, install)
}

// NewSchedSession opens a scenario under an internal/sched policy
// (the Session counterpart of RunSched).
func NewSchedSession(s Scenario, p sched.Policy) (*Session, error) {
	return NewSession(s, slurm.PolicyDROM, useSched(p))
}

// NewSchedSetSession opens a scenario under a per-partition policy
// set (the Session counterpart of RunSchedSet).
func NewSchedSetSession(s Scenario, ps sched.PolicySet) (*Session, error) {
	return NewSession(s, slurm.PolicyDROM, useSchedSet(ps))
}

// useSched installs one sched policy on every partition.
func useSched(p sched.Policy) func(*slurm.Controller) error {
	return func(ctl *slurm.Controller) error {
		ctl.UseSched(p)
		return nil
	}
}

// useSchedSet installs a per-partition policy set.
func useSchedSet(ps sched.PolicySet) func(*slurm.Controller) error {
	return func(ctl *slurm.Controller) error { return ctl.UseSchedSet(ps) }
}

// replay opens a session on src and drains it; an open error becomes
// the result's Err.
func replay(s Scenario, src SubmissionSource, policy slurm.Policy, install func(*slurm.Controller) error) Result {
	sess, err := newSession(s, src, policy, install)
	if err != nil {
		return Result{Scenario: s.Name, Policy: policy, Err: err}
	}
	return sess.Run()
}

// newSession builds the engine, cluster and controller the scenario
// describes, installs the scheduling configuration (install, when
// non-nil, puts a sched policy or policy set on the controller), and
// delivers src's submissions at t <= 0. s.Subs is ignored: src is the
// only submission input.
func newSession(s Scenario, src SubmissionSource, policy slurm.Policy, install func(*slurm.Controller) error) (*Session, error) {
	if len(s.Cluster.Partitions) == 0 {
		// A mapping source knows the cluster it shaped its submissions
		// for; adopt it so the simulated cluster can never disagree with
		// the trace mapping (callers may still override via s.Cluster).
		if cs, ok := src.(interface{ Cluster() hwmodel.ClusterSpec }); ok {
			s.Cluster = cs.Cluster()
		}
	}
	eng := sim.NewEngine()
	var tr *trace.Tracer
	if s.Trace {
		tr = trace.New()
	}
	var reg *shmem.Registry
	if s.ShmemDir != "" {
		fb, err := shmem.NewFileBackend(s.ShmemDir)
		if err != nil {
			return nil, fmt.Errorf("workload: shmem dir: %w", err)
		}
		reg = shmem.NewRegistryWith(fb)
	}
	cluster, err := slurm.NewClusterSpecReg(eng, s.clusterSpec(), tr, reg)
	if err != nil {
		return nil, err
	}
	if s.JitterFrac > 0 {
		cluster.Jitter = rand.New(rand.NewSource(s.Seed))
		cluster.JitterFrac = s.JitterFrac
	}
	ctl := slurm.NewController(cluster, policy)
	if install != nil {
		if err := install(ctl); err != nil {
			return nil, err
		}
	}
	ctl.Spillover = s.Spill
	ctl.SpillAfter = s.SpillAfter
	ctl.SpillDepth = s.SpillDepth
	if err := ctl.InstallFaults(slurm.FaultPlan{
		Script:      s.NodeFaults,
		MTBF:        s.MTBF,
		MTTR:        s.MTTR,
		MaxRequeues: s.MaxRequeues,
		Seed:        s.FaultSeed,
	}); err != nil {
		return nil, err
	}
	ctl.LogProtocol = s.LogProtocol
	ctl.NodeSelection = s.NodeSelection
	ctl.ServeEvolving = s.ServeEvolving
	ctl.DebugInvariants = s.DebugInvariants
	if p := s.Probe; p != nil {
		ctl.Probe = p
		eng.EveryProcessed(engineProbeEvery, func(now float64, processed int64) {
			p.Emit(obs.Event{Kind: obs.KindEngine, Time: now, Processed: processed})
		})
	}
	if _, materialized := src.(*sliceSource); !materialized {
		ctl.Records.SetAggregate()
	}
	sess := &Session{
		scn:     s,
		eng:     eng,
		ctl:     ctl,
		src:     src,
		cancels: make(map[sim.EventID]string),
	}
	sess.fire = sess.fireSub
	for {
		sub, ok := sess.pull()
		if !ok {
			break
		}
		if sub.At > 0 {
			sess.arm(sub)
			break
		}
		if !sess.submit(&sub) {
			break
		}
	}
	if sess.err != nil {
		return nil, sess.err
	}
	return sess, nil
}

// pull fetches the next record; ok is false once the source is
// exhausted or has failed (the error is recorded). Either way the
// source is closed and never pulled again.
func (s *Session) pull() (Submission, bool) {
	sub, ok, err := s.src.Next()
	if err != nil {
		s.err = err
	}
	if !ok || err != nil {
		s.closeSource()
		return Submission{}, false
	}
	return sub, true
}

// closeSource stops a source that holds resources (the SWF reader's
// parser goroutine); a no-op for every other source.
func (s *Session) closeSource() {
	if c, ok := s.src.(io.Closer); ok {
		c.Close()
	}
}

// arm makes sub the pending front-band submission event, clamped to
// now: real SWF archives occasionally contain a record whose submit
// time precedes the stream position, and it arrives immediately.
func (s *Session) arm(sub Submission) {
	at := sub.At
	if now := s.eng.Now(); at < now {
		at = now
	}
	s.next = sub
	s.nextEv = s.eng.AtFront(at, s.fire)
	s.pending = true
}

// fireSub runs the pending submission event: deliver it, then pull
// and arm the next.
func (s *Session) fireSub() {
	s.pending = false
	if !s.submit(&s.next) {
		return
	}
	if sub, ok := s.pull(); ok {
		s.arm(sub)
	}
}

// submit delivers one submission and arms its scancel timer. A failed
// submission is recorded and stops the stream: the source is closed
// and never pulled again.
func (s *Session) submit(sub *Submission) bool {
	job := sub.Job // the controller keeps the pointer; copy per submission
	if err := s.ctl.Submit(&job); err != nil {
		s.err = err
		s.closeSource()
		return false
	}
	if sub.Cancel {
		s.armCancel(sub.CancelAt, sub.Job.Name)
	}
	return true
}

// armCancel schedules an scancel, clamped to now so a cancellation
// recorded before the stream position still fires, and tracks it so a
// fork can re-bind it.
func (s *Session) armCancel(at float64, name string) {
	if now := s.eng.Now(); at < now {
		at = now
	}
	var id sim.EventID
	id = s.eng.At(at, func() {
		delete(s.cancels, id)
		s.ctl.Cancel(name)
	})
	s.cancels[id] = name
}

// Scenario returns the scenario the session replays.
func (s *Session) Scenario() Scenario { return s.scn }

// Engine returns the session's simulation engine.
func (s *Session) Engine() *sim.Engine { return s.eng }

// Controller returns the session's controller.
func (s *Session) Controller() *slurm.Controller { return s.ctl }

// Now returns the current virtual time.
func (s *Session) Now() float64 { return s.eng.Now() }

// RunUntil advances the simulation through every event at time <= t.
func (s *Session) RunUntil(t float64) { s.eng.RunUntil(t) }

// Run drains the simulation to completion and returns the result.
func (s *Session) Run() Result {
	s.eng.Run()
	return s.Result()
}

// Result assembles the scenario result from the state so far (valid
// at any point; final once Run returned).
func (s *Session) Result() Result {
	res := Result{Scenario: s.scn.Name, Policy: s.ctl.Policy(), Tracer: s.ctl.Cluster().Tracer, Err: s.err}
	if res.Err == nil {
		res.Err = s.ctl.Err
	}
	res.Records = s.ctl.Records
	res.Records.Dropped = s.scn.Dropped
	if dc, ok := s.src.(interface{ Dropped() metrics.DropStats }); ok {
		res.Records.Dropped = dc.Dropped()
	}
	res.Protocol = s.ctl.Log
	res.SchedCycles = s.ctl.Cycles
	res.Events = s.eng.Processed()
	return res
}

// Fork clones the whole simulation — engine, controller, shared
// memory, instances, pending submission and cancel timers — at the
// current virtual time. Both lineages then advance independently and
// decide identically. Requires a materialized scenario (a streamed
// session returns an error), an installed sched policy and a
// jitter-free scenario (slurm.Controller.Fork's contract).
func (s *Session) Fork() (*Session, error) {
	src, ok := s.src.(*sliceSource)
	if !ok {
		return nil, errStreamFork
	}
	ctl2, eng2, err := s.ctl.Fork()
	if err != nil {
		return nil, err
	}
	if s.ctl.Probe != nil {
		s.ctl.Probe.Emit(obs.Event{
			Kind:    obs.KindFork,
			Time:    s.eng.Now(),
			Queue:   s.ctl.QueueLen(),
			Running: s.ctl.RunningLen(),
		})
	}
	f := &Session{
		scn:     s.scn,
		eng:     eng2,
		ctl:     ctl2,
		src:     &sliceSource{subs: src.subs, i: src.i},
		next:    s.next,
		nextEv:  s.nextEv,
		pending: s.pending,
		cancels: make(map[sim.EventID]string, len(s.cancels)),
		err:     s.err,
	}
	f.fire = f.fireSub
	if f.pending {
		// The pending submission event came over with the engine fork;
		// bind it to the forked stream.
		if err := eng2.Rebind(f.nextEv, f.fire); err != nil {
			return nil, fmt.Errorf("workload: fork submission stream: %w", err)
		}
	}
	for id, name := range s.cancels { //simvet:ordered independent per-ID re-binds
		id, name := id, name
		f.cancels[id] = name
		if err := eng2.Rebind(id, func() {
			delete(f.cancels, id)
			f.ctl.Cancel(name)
		}); err != nil {
			return nil, fmt.Errorf("workload: fork scancel timer: %w", err)
		}
	}
	if err := eng2.FinishFork(); err != nil {
		return nil, fmt.Errorf("workload: fork: %w", err)
	}
	return f, nil
}

// SessionSnapshot is a frozen copy of a session. The snapshot itself
// never advances; Restore forks it back into a runnable Session any
// number of times.
type SessionSnapshot struct {
	s *Session
}

// Snapshot freezes the session's current state.
func (s *Session) Snapshot() (*SessionSnapshot, error) {
	f, err := s.Fork()
	if err != nil {
		return nil, err
	}
	return &SessionSnapshot{s: f}, nil
}

// Restore returns a runnable session resuming from the snapshot.
func (sn *SessionSnapshot) Restore() (*Session, error) {
	return sn.s.Fork()
}
