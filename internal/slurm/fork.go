package slurm

// Fork support: a running controller — queue, running set, per-node
// DROM shared memory, demand ledgers, incremental free-mask caches,
// fault-injection state and every pending engine event — can be
// cloned at the current virtual time so two lineages continue
// independently with byte-identical decisions.
//
// Ownership rules (see also ARCHITECTURE.md, "Snapshot & fork"):
//
//   - deep-cloned: the engine queue, shmem segments, DROM systems,
//     demand table, queuedJob/runningJob records, app instances,
//     free-mask caches, fault-state arrays, metrics records, and one
//     fresh sched.Policy per partition (ClonePolicy);
//   - shared immutable: Job values (copy-on-write on mutation — see
//     SetQueuedMalleable), cluster spec, node name/machine/partition
//     tables, nodeIdx;
//   - dropped: Probe, protocol log, Tracer, Jitter — observers must
//     never steer decisions, so a blind fork decides identically.
//
// Pending events are not re-scheduled: the engine fork preserves
// every (time, ID) pair and the controller re-binds each ID to a
// closure over the forked state via the pend descriptor map. The
// fault RNG is reconstructed from its seed and fast-forwarded by the
// recorded draw count, so both lineages continue the same stream.

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// pendKind tags a pending-event descriptor.
type pendKind uint8

const (
	// evStart is the deferred Instance.Start after the launch latency.
	evStart pendKind = iota + 1
	// evInterrupt is a FailAfter interrupt (interruptRunning).
	evInterrupt
	// evWinDown / evWinDrain are scripted outage windows opening.
	evWinDown
	evWinDrain
	// evRepair / evDrainEnd return a node to service.
	evRepair
	evDrainEnd
	// evSeeded is an armed MTBF failure.
	evSeeded
	// evRequeue is a fault-killed job's backoff expiring.
	evRequeue
)

// pendEv describes one pending controller event so Fork can re-bind
// its engine event ID to a closure over the forked state.
type pendEv struct {
	kind    pendKind
	seq     int     // evStart, evInterrupt, evRequeue
	node    int     // fault events: global node index
	home    int     // evRequeue: home partition index
	attempt int     // evRequeue
	until   float64 // window/outage horizon
	submit  float64 // evRequeue: original submit time
	job     *Job    // evRequeue
}

// trackAt schedules body at absolute time t, recording the descriptor
// until the event fires.
func (ctl *Controller) trackAt(t float64, pe pendEv, body func()) {
	var id sim.EventID
	id = ctl.cluster.Engine.At(t, func() {
		delete(ctl.pend, id)
		body()
	})
	ctl.pend[id] = pe
}

// trackAfter schedules body after delay d, recording the descriptor
// until the event fires.
func (ctl *Controller) trackAfter(d float64, pe pendEv, body func()) {
	ctl.trackAt(ctl.cluster.Engine.Now()+d, pe, body)
}

// Fork clones the cluster onto the forked engine: fresh shared-memory
// segments (same registered processes and masks), fresh DROM systems,
// a deep-copied demand table. The spec and node tables are shared
// immutable; Tracer and Jitter do not carry over (forks are untraced
// and jitter-free by contract).
func (c *Cluster) Fork(eng *sim.Engine) *Cluster {
	f := &Cluster{
		Machine:  c.Machine,
		Spec:     c.Spec,
		Nodes:    c.Nodes,
		Engine:   eng,
		Demand:   c.Demand.Fork(),
		reg:      c.reg.Fork(),
		sys:      make(map[string]*core.System, len(c.sys)),
		machines: c.machines,
		partOf:   c.partOf,
	}
	for name, s := range c.sys { //simvet:ordered fresh map built key-for-key; no order-dependent output
		ns := core.NewSystem(f.reg.Get(name))
		ns.SyncTimeout = s.SyncTimeout
		f.sys[name] = ns
	}
	return f
}

// Cluster returns the controller's simulated machine.
func (ctl *Controller) Cluster() *Cluster { return ctl.cluster }

// Fork clones the controller and the entire simulation state beneath
// it — engine, shared memory, demand, instances, scheduler policies,
// fault state, metrics — at the current virtual time. The returned
// engine is still inside its re-binding window: the caller must
// re-bind its own pending events (submission chains, scancel timers)
// and then call FinishFork on it before running either lineage.
//
// Fork requires an installed sched.Policy (builtin-mode pending
// events carry no re-bind descriptors) and refuses jittered clusters
// (the jitter RNG stream cannot be split).
func (ctl *Controller) Fork() (*Controller, *sim.Engine, error) {
	if ctl.Err != nil {
		return nil, nil, fmt.Errorf("slurm: Fork of a failed controller: %w", ctl.Err)
	}
	if ctl.scheds == nil {
		return nil, nil, fmt.Errorf("slurm: Fork requires an installed scheduling policy")
	}
	if ctl.cluster.Jitter != nil {
		return nil, nil, fmt.Errorf("slurm: Fork of a jittered cluster is not supported")
	}
	eng := ctl.cluster.Engine.Fork()
	c := ctl.cluster.Fork(eng)
	ctl2 := &Controller{
		cluster:         c,
		policy:          ctl.policy,
		NodeSelection:   ctl.NodeSelection,
		Spillover:       ctl.Spillover,
		SpillAfter:      ctl.SpillAfter,
		SpillDepth:      ctl.SpillDepth,
		ServeEvolving:   ctl.ServeEvolving,
		Backfill:        ctl.Backfill,
		LaunchLatency:   ctl.LaunchLatency,
		CheckpointCost:  ctl.CheckpointCost,
		RestartCost:     ctl.RestartCost,
		drainUntil:      ctl.drainUntil,
		seq:             ctl.seq,
		admins:          make(map[string]*core.Admin, len(ctl.admins)),
		nodeMasks:       append([]cpuset.CPUSet(nil), ctl.nodeMasks...),
		nodeIdx:         ctl.nodeIdx, // read-only after construction
		nodeFree:        append([]cpuset.CPUSet(nil), ctl.nodeFree...),
		nodeFreeOK:      append([]bool(nil), ctl.nodeFreeOK...),
		qBySeq:          make(map[int]*queuedJob, len(ctl.qBySeq)),
		rBySeq:          make(map[int]*runningJob, len(ctl.rBySeq)),
		pend:            make(map[sim.EventID]pendEv, len(ctl.pend)),
		cyclePending:    ctl.cyclePending,
		cycleEv:         ctl.cycleEv,
		lastCycleAt:     ctl.lastCycleAt,
		rearmedAt:       ctl.rearmedAt,
		Cycles:          ctl.Cycles,
		DebugInvariants: ctl.DebugInvariants,
		Records:         *ctl.Records.Clone(),
	}
	ctl2.scheds = make([]sched.Policy, len(ctl.scheds))
	for i, p := range ctl.scheds {
		ctl2.scheds[i] = p.ClonePolicy()
	}
	for _, n := range c.Nodes {
		admin, code := c.System(n).Attach()
		if code.IsError() {
			return nil, nil, fmt.Errorf("slurm: Fork attach on %s: %w", n, code)
		}
		ctl2.admins[n] = admin
	}
	ctl2.queue = make([]*queuedJob, len(ctl.queue))
	for i, q := range ctl.queue {
		if q.resume != nil {
			return nil, nil, fmt.Errorf("slurm: Fork with a checkpointed job in queue (job %s)", q.job.Name)
		}
		cq := *q
		ctl2.queue[i] = &cq
		ctl2.qBySeq[cq.seq] = &cq
	}
	sysOf := func(node string) *core.System { return c.System(node) }
	ctl2.running = make([]*runningJob, len(ctl.running))
	for i, r := range ctl.running {
		cr := &runningJob{
			job: r.job, seq: r.seq, pidx: r.pidx, homePidx: r.homePidx,
			submit: r.submit, start: r.start,
			nodes:    append([]string(nil), r.nodes...),
			tasks:    append([]taskRef(nil), r.tasks...),
			nodeIdxs: append([]int(nil), r.nodeIdxs...),
			curCPUs:  r.curCPUs, curOK: r.curOK, requeues: r.requeues,
		}
		cr.inst = r.inst.Fork(eng, c.Demand, sysOf)
		cr.inst.OnComplete = func(end float64) { ctl2.onJobEnd(cr, end) }
		if err := cr.inst.RebindPending(); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork job %s: %w", cr.job.Name, err)
		}
		ctl2.running[i] = cr
		ctl2.rBySeq[cr.seq] = cr
	}
	// Fault-injection state: arrays by value, the RNG reconstructed at
	// the identical stream position.
	ctl2.nfPlan = ctl.nfPlan
	ctl2.nfLimbo = ctl.nfLimbo
	if ctl.nfState != nil {
		ctl2.nfState = append([]hwmodel.NodeState(nil), ctl.nfState...)
		ctl2.nfDownUntil = append([]float64(nil), ctl.nfDownUntil...)
		ctl2.nfDrainUntil = append([]float64(nil), ctl.nfDrainUntil...)
		ctl2.nfDownStart = append([]float64(nil), ctl.nfDownStart...)
	}
	if ctl.nfArmed != nil {
		ctl2.nfArmed = append([]bool(nil), ctl.nfArmed...)
	}
	if ctl.nfRand != nil {
		ctl2.nfRand = rand.New(rand.NewSource(ctl.nfPlan.Seed))
		for i := int64(0); i < ctl.nfDraws; i++ {
			ctl2.nfRand.Float64()
		}
		ctl2.nfDraws = ctl.nfDraws
	}
	// Re-bind the pending events: the coalesced cycle event, then every
	// descriptor-carrying event. Re-binds are independent per event ID,
	// so the map order cannot influence the fork.
	if ctl.cyclePending {
		if err := eng.Rebind(ctl.cycleEv, ctl2.runCycle); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork cycle event: %w", err)
		}
	}
	for id, pe := range ctl.pend { //simvet:ordered independent per-ID re-binds
		body, err := ctl2.pendBody(pe)
		if err != nil {
			return nil, nil, err
		}
		id := id
		ctl2.pend[id] = pe
		if err := eng.Rebind(id, func() {
			delete(ctl2.pend, id)
			body()
		}); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork pend event: %w", err)
		}
	}
	return ctl2, eng, nil
}

// pendBody builds the forked closure of one pending-event descriptor.
func (ctl *Controller) pendBody(pe pendEv) (func(), error) {
	switch pe.kind {
	case evStart:
		r := ctl.rBySeq[pe.seq]
		if r == nil {
			// The job was killed inside its launch-latency window before
			// the fork; the parent's event no-ops against the stopped
			// instance, so the fork runs an empty event in its place.
			return func() {}, nil
		}
		inst := r.inst
		return func() {
			if err := inst.Start(); err != nil {
				ctl.fail(err)
			}
		}, nil
	case evInterrupt:
		seq := pe.seq
		return func() { ctl.interruptRunning(seq) }, nil
	case evWinDown:
		i, until := pe.node, pe.until
		return func() { ctl.nodeDown(i, until) }, nil
	case evWinDrain:
		i, until := pe.node, pe.until
		return func() { ctl.nodeDrain(i, until) }, nil
	case evRepair:
		i := pe.node
		return func() { ctl.nodeRepair(i) }, nil
	case evDrainEnd:
		i := pe.node
		return func() { ctl.drainEnd(i) }, nil
	case evSeeded:
		i := pe.node
		return func() { ctl.seededFault(i) }, nil
	case evRequeue:
		job, submit, seq, home, attempt := pe.job, pe.submit, pe.seq, pe.home, pe.attempt
		return func() { ctl.requeueArrive(job, submit, seq, home, attempt) }, nil
	}
	return nil, fmt.Errorf("slurm: Fork: unknown pending-event kind %d", pe.kind)
}

// SetQueuedMalleable flips the malleability of a still-queued job.
// The shared Job value is replaced copy-on-write so a lineage forked
// before the change never observes it. Returns false when no queued
// job has that name.
func (ctl *Controller) SetQueuedMalleable(name string, malleable bool) bool {
	for _, q := range ctl.queue {
		if q.job.Name != name {
			continue
		}
		if q.job.Malleable != malleable {
			nj := *q.job
			nj.Malleable = malleable
			q.job = &nj
			ctl.trySchedule()
		}
		return true
	}
	return false
}
