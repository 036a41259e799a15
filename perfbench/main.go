// Command perfbench is the repository's benchmark. It replays one
// seeded workload through the simulator's public entry points, checks
// every output, and prints each metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its launcher, which builds
// it first:
//
//	bash perfbench/run.sh --workload replay-fcfs-100k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with all
// tracing off; with --trace 1 it attaches the obs probe, a handler
// timer and the CPU profiler and reports the per-layer metrics
// instead, writing its spans to <out>/traces/ when it ends. README.md
// defines every metric and workload.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/cluster"
	"repro/internal/schedd"
	"repro/internal/workload"
)

const (
	// setupReps is how often a run repeats each set-up step; setup_s
	// is the median.
	setupReps = 3
	// minReplays is how many timed untraced replays of every trace a
	// run makes at least; a traced run makes as many traced ones too.
	minReplays = 2
	// overrunS bounds how far past --seconds a run may go to reach its
	// minimum replays and what-if rounds.
	overrunS = 60
	// forkSamples is how many forks of the serving state a traced run
	// times itself.
	forkSamples = 20
	// maxFailureLogs bounds the failure messages printed per run.
	maxFailureLogs = 10
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	fs.Int64Var(&o.seed, "seed", 1, "trace seed; the fault stream's seed follows it")
	fs.IntVar(&o.seconds, "seconds", 25, "measured seconds, over which replay cycles and what-if rounds take turns")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for expected counts and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(2)
	b, err := newBench(w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	notes     []string
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the notes, one line per metric, and the JSON result as
// the last line.
func (r *report) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-26s %16.6f %s\n", name, m.Value, m.Unit)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// bench is one run of one workload.
type bench struct {
	w      workloadDef
	o      options
	log    io.Writer
	start  time.Time
	host   *hostSpeed
	expect *expectations
	// setupK and measureK are the calibration kernel's times during
	// set-up and during measuring, in seconds; lastK is the latest.
	setupK, measureK []float64
	lastK            float64

	attempted, failed int
	logged            int
	spans             []span
}

func newBench(w workloadDef, o options, log io.Writer) (*bench, error) {
	id, err := buildID()
	if err != nil {
		return nil, err
	}
	e, err := loadExpectations(filepath.Join(o.out, "expect", fmt.Sprintf("%s-%s-seed%d.json", id, w.name, o.seed)))
	if err != nil {
		return nil, err
	}
	return &bench{w: w, o: o, log: log, expect: e}, nil
}

// buildID identifies this binary by its content hash, so expected
// counts are only ever compared between runs of the same build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// op records one attempted operation and whether its output check
// passed.
func (b *bench) op(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.fail(err)
	return false
}

func (b *bench) fail(err error) {
	b.failed++
	if b.logged < maxFailureLogs {
		fmt.Fprintln(b.log, "perfbench: check failed:", err)
	}
	b.logged++
}

// replayStats are the measurements of the replays. Times, allocs and
// bytes are kept per trace, one entry per timed replay that passed its
// checks; the first replay of each trace is a warm-up and times
// nothing.
type replayStats struct {
	counts  []replayCounts        // per trace, first replay
	records [][]cluster.JobRecord // per trace, first replay
	plain   [][]float64           // per trace, scaled seconds of untraced replays
	walls   [][]float64           // per trace, wall seconds of untraced replays
	traced  [][]float64           // per trace, scaled seconds of traced replays
	allocs  [][]float64           // per trace, Mallocs of untraced replays
	bytes   [][]float64           // per trace, TotalAlloc of untraced replays
	done    []int                 // per trace, replays made
	probe   *recorder             // each trace's first traced replay
}

func newReplayStats(n int, base time.Time) *replayStats {
	return &replayStats{
		counts: make([]replayCounts, n), records: make([][]cluster.JobRecord, n),
		plain: make([][]float64, n), walls: make([][]float64, n), traced: make([][]float64, n),
		allocs: make([][]float64, n), bytes: make([][]float64, n), done: make([]int, n),
		probe: &recorder{base: base, keepSpans: true},
	}
}

// total sums the per-trace counts of one replay of every trace.
func (rs *replayStats) total() replayCounts {
	var t replayCounts
	for _, c := range rs.counts {
		t.Jobs += c.Jobs
		t.Events += c.Events
		t.Spilled += c.Spilled
		t.Requeues += c.Requeues
		t.MeanRespS += c.MeanRespS / float64(len(rs.counts))
		t.MeanBSLD += c.MeanBSLD / float64(len(rs.counts))
	}
	return t
}

// enough reports whether every trace has minReplays timed untraced
// replays and, in a traced run, as many traced ones.
func (rs *replayStats) enough(traced bool) bool {
	for i := range rs.plain {
		if len(rs.plain[i]) < minReplays || (traced && len(rs.traced[i]) < minReplays) {
			return false
		}
	}
	return true
}

// queryStats are the measurements of the what-ifs. Candidate c is
// asked at paths[c] about job names[c] of serving state point[c];
// block k is candidates [k*blockQueries, (k+1)*blockQueries).
type queryStats struct {
	paths    []string
	point    []int
	names    []string
	nextID   int64            // last request id sent
	rounds   []int            // per block, times it was sent
	sends    [][]float64      // per block, wall seconds of sends answered in full
	best     []float64        // per candidate, fastest answer in seconds; 0 = none yet
	first    []*schedd.WhatIf // per candidate, its first answer
	lat      []float64        // seconds, every answered query
	handler  []float64        // seconds, traced runs
	simSPerQ float64
	forkMs   []float64
}

func newQueryStats(specs []forkPoint) *queryStats {
	qs := &queryStats{}
	for k, p := range specs {
		for _, n := range p.names {
			qs.paths = append(qs.paths, fmt.Sprintf("/p%d/whatif?job=%s", k, n))
			qs.point = append(qs.point, k)
			qs.names = append(qs.names, n)
		}
	}
	blocks := (len(qs.paths) + blockQueries - 1) / blockQueries
	qs.rounds = make([]int, blocks)
	qs.sends = make([][]float64, blocks)
	qs.best = make([]float64, len(qs.paths))
	qs.first = make([]*schedd.WhatIf, len(qs.paths))
	return qs
}

// enough reports whether every block has been sent minRounds times.
func (qs *queryStats) enough() bool {
	for _, r := range qs.rounds {
		if r < minRounds {
			return false
		}
	}
	return true
}

// answered returns the fastest answer of every answered candidate,
// times f.
func (qs *queryStats) answered(f float64) []float64 {
	var out []float64
	for _, v := range qs.best {
		if v > 0 {
			out = append(out, v*f)
		}
	}
	return out
}

func (b *bench) run() (*report, error) {
	b.start = time.Now()
	b.host = newHostSpeed()
	heap := startHeapWatch()
	var prof bytes.Buffer
	var gc0, cpu0 float64
	if b.o.trace {
		gc0, cpu0 = gcCPU()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			heap.peak()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	scs, genS, err := b.generate()
	var rs *replayStats
	var qs *queryStats
	var serveS []float64
	if err == nil {
		rs, qs, serveS, err = b.measure(scs)
	}
	if b.o.trace {
		pprof.StopCPUProfile()
	}
	peak := heap.peak()
	if err != nil {
		return nil, err
	}
	if err := b.expect.save(); err != nil {
		return nil, fmt.Errorf("save expected counts: %w", err)
	}

	rep := &report{Metrics: map[string]metric{}}
	replays := 0
	for _, n := range rs.done {
		replays += n
	}
	fs, fm := scale(b.setupK), scale(b.measureK)
	cand := qs.answered(fm)
	jobs := float64(rs.total().Jobs)
	rep.notes = append(rep.notes, fmt.Sprintf("workload %s seed %d: %d traces of %d jobs, %d replays, %d what-ifs over %d candidates",
		b.w.name, b.o.seed, len(scs), b.w.jobs, replays, len(qs.lat), len(qs.paths)))
	rep.notes = append(rep.notes, fmt.Sprintf("host speed: calibration kernel median %.3f ms over %d runs in set-up, %.3f ms over %d while measuring; reference %.3f ms",
		median(b.setupK)*1e3, len(b.setupK), median(b.measureK)*1e3, len(b.measureK), calibRefS*1e3))
	rep.notes = append(rep.notes, fmt.Sprintf("unscaled: %.1f jobs/s, %.1f what-ifs/s, setup %.3f s",
		jobs/sumMedians(rs.walls), float64(len(qs.paths))/sumMedians(qs.sends), median(genS)+median(serveS)))
	if p, v, ok := tailPercentile(cand, 10); ok {
		rep.notes = append(rep.notes, fmt.Sprintf("fastest answer per candidate, scaled: p%g = %.3f ms over %d candidates", p, v*1e3, len(cand)))
	}
	if b.o.trace {
		gc1, cpu1 := gcCPU()
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d CPU profile samples", samples))
		b.layerMetrics(rep, rs, qs, shares, (gc1-gc0)/math.Max(cpu1-cpu0, 1e-9))
		path := filepath.Join(b.o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.o.seed))
		if err := writeSpans(path, b.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(b.spans), path))
	} else {
		rep.set("setup_s", (median(genS)+median(serveS))*fs, "s")
		rep.set("jobs_per_s", jobs/sumMedians(rs.plain), "jobs/s")
		rep.set("allocs_per_job", sumMedians(rs.allocs)/jobs, "allocs")
		rep.set("peak_heap_mb", float64(peak)/(1<<20), "MB")
		rep.set("whatif_qps", float64(len(qs.paths))/(sumMedians(qs.sends)*fm), "1/s")
		rep.set("whatif_p50_ms", percentile(cand, 50)*1e3, "ms")
		rep.set("whatif_p99_ms", percentile(cand, 99)*1e3, "ms")
	}
	rep.Attempted, rep.Failed = b.attempted, b.failed
	rep.Correct = b.failed == 0
	return rep, nil
}

// generate builds the workload's traces setupReps times and keeps the
// last set.
func (b *bench) generate() ([]cluster.Scenario, []float64, error) {
	var scs []cluster.Scenario
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := b.w.scenarios(b.o.seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.calibrate(&b.setupK)
		scs = s
	}
	return scs, times, nil
}

// measure replays every trace once as a warm-up, builds the what-if
// service on forks of those replays (setupReps times), and then
// alternates a cycle of replays (every trace once) with rounds of
// what-ifs (every block once), for --seconds and until every trace has
// minReplays timed replays and every block minRounds sends. The
// calibration kernel runs after every set-up step, every replay and
// every blocksPerKernel blocks; it starts with a full collection, so
// each of these also starts on a collected heap and none pays for
// another's garbage.
func (b *bench) measure(scs []cluster.Scenario) (*replayStats, *queryStats, []float64, error) {
	rs := newReplayStats(len(scs), b.start)
	for i := range scs {
		if err := b.replayOne(scs, rs, i); err != nil {
			return nil, nil, nil, err
		}
		if rs.records[i] == nil {
			return nil, nil, nil, fmt.Errorf("trace %d: first replay failed its checks; nothing to fork from", i)
		}
	}
	specs, starts, err := forkSpecs(rs, b.w.forkPoints, b.w.candidates)
	if err != nil {
		return nil, nil, nil, err
	}
	var live *serving
	var serveS []float64
	for i := 0; i < setupReps; i++ {
		if live != nil {
			live.srv.close()
			live = nil // let the previous set of sessions go before the next is built
		}
		t0 := time.Now()
		s, err := b.serve(scs, specs)
		if err != nil {
			return nil, nil, nil, err
		}
		serveS = append(serveS, time.Since(t0).Seconds())
		live = s
		b.calibrate(&b.setupK)
	}
	defer live.srv.close()

	qs := newQueryStats(specs)
	if b.o.trace {
		mid := live.points[len(live.points)-1].sess // a trace's midpoint state
		for i := 0; i < forkSamples; i++ {
			t0 := time.Now()
			_, err := mid.Fork()
			t1 := time.Now()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("fork: %w", err)
			}
			qs.forkMs = append(qs.forkMs, t1.Sub(t0).Seconds()*1e3)
			b.spans = append(b.spans, span{Name: "workload.fork", Start: t0.Sub(b.start).Nanoseconds(), End: t1.Sub(b.start).Nanoseconds()})
		}
	}

	client, tr := newClient()
	defer tr.CloseIdleConnections()
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	hardStop := deadline.Add(overrunS * time.Second)
	rounds := 0
	for {
		now := time.Now()
		if now.After(hardStop) || (!now.Before(deadline) && rs.enough(b.o.trace) && qs.enough()) {
			break
		}
		t0 := time.Now()
		for i := range scs {
			if err := b.replayOne(scs, rs, i); err != nil {
				return nil, nil, nil, err
			}
		}
		// Then rounds of what-ifs for as long as the cycle took (at
		// least one), so that both get about half the time.
		cycle := time.Since(t0)
		for t1 := time.Now(); ; {
			b.queryRound(client, live, qs, starts, rounds)
			rounds++
			if time.Since(t1) >= cycle {
				break
			}
		}
	}
	if !rs.enough(b.o.trace) {
		b.fail(fmt.Errorf("fewer than %d timed replays of every trace within %ds", minReplays, b.o.seconds+overrunS))
	}
	if !qs.enough() {
		b.fail(fmt.Errorf("what-if blocks sent fewer than %d times within %ds", minRounds, b.o.seconds+overrunS))
	}

	// One answer per candidate, in candidate order: exact and
	// independent of how many queries the time allowed.
	var simS float64
	answered := 0
	for _, f := range qs.first {
		if f != nil {
			simS += f.Start - f.ForkedAt
			answered++
		}
	}
	if answered > 0 {
		qs.simSPerQ = simS / float64(answered)
		if answered != len(qs.paths) {
			b.fail(fmt.Errorf("%d of %d candidates answered", answered, len(qs.paths)))
		} else if err := b.expect.same("schedd.sim_s_per_query", qs.simSPerQ); err != nil {
			b.fail(err)
		}
	}
	if live.timer != nil {
		live.timer.mu.Lock()
		defer live.timer.mu.Unlock()
		for _, s := range live.timer.spans {
			s.Parent = s.Req
			qs.handler = append(qs.handler, float64(s.End-s.Start)/1e9)
			b.spans = append(b.spans, s)
		}
	}
	b.spans = append(b.spans, rs.probe.spans...)
	return rs, qs, serveS, nil
}

// calibrate runs the calibration kernel and files its time in *into.
func (b *bench) calibrate(into *[]float64) {
	b.lastK = b.host.calibrate()
	*into = append(*into, b.lastK)
}

// replayOne replays trace i once, checks the replay, and records its
// measurements, its time scaled by the kernel runs around it. Every other replay of a traced run is traced, each
// trace's first traced replay into rs.probe. Every replay must
// reproduce the counts of the trace's first replay and of the first run
// of this build, traced or not, so the probe is shown not to change a
// single decision and its overhead is measured. It returns an error
// only when the trace cannot be replayed at all; a failed check counts
// as a failed operation.
func (b *bench) replayOne(scs []cluster.Scenario, rs *replayStats, i int) error {
	k := rs.done[i]
	rs.done[i]++
	traced := b.o.trace && k%2 == 1
	sc := scs[i]
	var rec *recorder
	var before probeCounts
	if traced {
		rec = &recorder{base: b.start}
		if k == 1 {
			rec = rs.probe
		}
		sc.Probe = rec
		before = rec.probeCounts
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := b.w.replay(sc)
	w := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	kBefore := b.lastK
	if rs.records[i] == nil {
		b.calibrate(&b.setupK)
	} else {
		b.calibrate(&b.measureK)
	}
	// The kernel ran right before and right after this replay.
	scaled := w * calibRefS / ((kBefore + b.lastK) / 2)
	c, err := b.w.checkReplay(sc, res)
	if err == nil && rs.records[i] != nil && c != rs.counts[i] {
		err = fmt.Errorf("trace %d, replay %d (traced=%v): counts %+v differ from its first replay: %+v", i, k, traced, c, rs.counts[i])
	}
	if err == nil {
		err = b.expect.same(fmt.Sprintf("replay-%d", i), c)
	}
	if err == nil && traced {
		err = b.expect.same(fmt.Sprintf("probe-%d", i), rec.probeCounts.minus(before))
	}
	switch {
	case !b.op(err):
	case rs.records[i] == nil: // the warm-up
		rs.counts[i] = c
		rs.records[i] = res.Records.Jobs
	case traced:
		rs.traced[i] = append(rs.traced[i], scaled)
	default:
		rs.plain[i] = append(rs.plain[i], scaled)
		rs.walls[i] = append(rs.walls[i], w)
		rs.allocs[i] = append(rs.allocs[i], float64(m1.Mallocs-m0.Mallocs))
		rs.bytes[i] = append(rs.bytes[i], float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return nil
}

// queryRound sends every block once, starting at block r (each round
// one block later, so the collector's cycles fall on other candidates
// from round to round), and runs the calibration kernel after every
// blocksPerKernel blocks.
func (b *bench) queryRound(client *http.Client, live *serving, qs *queryStats, starts []map[string]float64, r int) {
	for k := range qs.rounds {
		b.queryBlock(client, live, qs, starts, (r+k)%len(qs.rounds))
		if (k+1)%blocksPerKernel == 0 || k == len(qs.rounds)-1 {
			b.calibrate(&b.measureK)
		}
	}
}

// queryBlock sends block blk of the candidates once, from the closed
// loop, and checks every answer: it must pass checkAnswer and repeat
// the candidate's first answer exactly.
func (b *bench) queryBlock(client *http.Client, live *serving, qs *queryStats, starts []map[string]float64, blk int) {
	lo := blk * blockQueries
	hi := min(lo+blockQueries, len(qs.paths))
	t0 := time.Now()
	answers := closedLoop(client, live.srv.url, qs.paths[lo:hi], queryClients, qs.nextID)
	send := time.Since(t0).Seconds()
	qs.nextID += int64(hi - lo)
	qs.rounds[blk]++
	ok := true
	for _, a := range answers {
		c := lo + a.cand
		p := live.points[qs.point[c]]
		name := qs.names[c]
		err := checkAnswer(a, name, p.at, starts[p.trace][name], !b.w.faults())
		if err == nil {
			if f := qs.first[c]; f == nil {
				pred := a.pred
				qs.first[c] = &pred
			} else if *f != a.pred {
				err = fmt.Errorf("what-if %s answered %+v, earlier %+v", name, a.pred, *f)
			}
		}
		if !b.op(err) {
			ok = false
			continue
		}
		lat := a.latency().Seconds()
		qs.lat = append(qs.lat, lat)
		if qs.best[c] == 0 || lat < qs.best[c] {
			qs.best[c] = lat
		}
		if b.o.trace {
			b.spans = append(b.spans, span{Name: "client.whatif", ID: a.id, Req: a.id,
				Start: a.t0.Sub(b.start).Nanoseconds(), End: a.t1.Sub(b.start).Nanoseconds()})
		}
	}
	if ok {
		qs.sends[blk] = append(qs.sends[blk], send)
	}
}

// forkPoint is one served state: a session on trace `trace` advanced
// to virtual time at, and the candidates asked about it.
type forkPoint struct {
	trace int
	until float64
	at    float64
	sess  *workload.Session
	names []string
}

// serving is the what-if service's live state: one session per fork
// point, each behind its own schedd server, mounted under /p<k>/ of
// one loopback HTTP server.
type serving struct {
	points []forkPoint
	srv    *server
	timer  *handlerTimer
}

// serve opens one session per trace and advances it through that
// trace's fork points, leaving a fork of it at each one, and serves
// them all.
func (b *bench) serve(scs []cluster.Scenario, specs []forkPoint) (*serving, error) {
	s := &serving{points: append([]forkPoint(nil), specs...)}
	mux := http.NewServeMux()
	var sess *workload.Session
	for k := range s.points {
		p := &s.points[k]
		if k == 0 || p.trace != s.points[k-1].trace {
			var err error
			if sess, err = b.w.session(scs[p.trace]); err != nil {
				return nil, err
			}
		}
		sess.RunUntil(p.until)
		if err := sess.Result().Err; err != nil {
			return nil, fmt.Errorf("trace %d: advance to %g: %w", p.trace, p.until, err)
		}
		p.sess = sess
		if k+1 < len(s.points) && s.points[k+1].trace == p.trace {
			// Later points of this trace keep advancing sess.
			var err error
			if p.sess, err = sess.Fork(); err != nil {
				return nil, fmt.Errorf("trace %d: fork at %g: %w", p.trace, p.until, err)
			}
		}
		p.at = p.sess.Now()
		prefix := fmt.Sprintf("/p%d", k)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, schedd.NewServer(p.sess, forkSlots).Handler()))
	}
	var h http.Handler = mux
	if b.o.trace {
		s.timer = &handlerTimer{h: h, base: b.start}
		h = s.timer
	}
	var err error
	if s.srv, err = startServer(h); err != nil {
		return nil, err
	}
	return s, nil
}

// forkSpecs places the workload's fork points over its traces and picks
// each point's candidates: the jobs the replay starts next after it.
// A trace's points sit at evenly spaced job starts of its
// uninterrupted replay, the last where half of its jobs have started,
// so every point has jobs left to ask about. It returns the points and
// each trace's replay start times.
func forkSpecs(rs *replayStats, points, candidates int) ([]forkPoint, []map[string]float64, error) {
	per := max(points/len(rs.counts), 1)
	var specs []forkPoint
	starts := make([]map[string]float64, len(rs.counts))
	for i := range rs.counts {
		var started []cluster.JobRecord
		for _, r := range rs.records[i] {
			if !r.NeverRan() {
				started = append(started, r)
			}
		}
		sort.Slice(started, func(a, b int) bool {
			if started[a].Start != started[b].Start {
				return started[a].Start < started[b].Start
			}
			return started[a].Name < started[b].Name
		})
		starts[i] = make(map[string]float64, len(started))
		for _, r := range started {
			starts[i][r.Name] = r.Start
		}
		for k := 1; k <= per; k++ {
			p := forkPoint{trace: i, until: started[len(started)*k/(2*per)].Start}
			j := sort.Search(len(started), func(j int) bool { return started[j].Start > p.until })
			for ; j < len(started) && len(p.names) < candidates; j++ {
				p.names = append(p.names, started[j].Name)
			}
			if len(p.names) < candidates {
				return nil, nil, fmt.Errorf("trace %d: only %d what-if candidates after t=%g", i, len(p.names), p.until)
			}
			specs = append(specs, p)
		}
	}
	return specs, starts, nil
}

// layerMetrics fills the traced run's per-layer report.
func (b *bench) layerMetrics(rep *report, rs *replayStats, qs *queryStats, shares map[string]float64, gcFrac float64) {
	p := rs.probe
	tot := rs.total()
	jobs := float64(tot.Jobs)
	passBusy := sum(p.passNs) / 1e9
	cycleBusy := sum(p.cycleNs) / 1e9

	rep.set("sim.events_per_job", float64(tot.Events)/jobs, "count")
	rep.set("metrics.mean_response_s", tot.MeanRespS, "s")
	rep.set("metrics.mean_bsld", tot.MeanBSLD, "ratio")
	for _, l := range layerBuckets {
		rep.set(l+".cpu_share", shares[l], "ratio")
	}
	rep.set("sched.passes", float64(p.Passes), "count")
	rep.set("sched.busy_s", passBusy, "s")
	rep.set("sched.pass_p50_us", percentile(p.passNs, 50)/1e3, "us")
	rep.set("sched.pass_p99_us", percentile(p.passNs, 99)/1e3, "us")
	rep.set("slurm.cycles", float64(p.Cycles), "count")
	rep.set("slurm.cycle_busy_s", cycleBusy, "s")
	rep.set("slurm.cycle_self_s", cycleBusy-passBusy, "s")
	rep.set("slurm.cycle_p50_us", percentile(p.cycleNs, 50)/1e3, "us")
	rep.set("slurm.cycle_p99_us", percentile(p.cycleNs, 99)/1e3, "us")
	reject := 0.0
	if p.Actions > 0 {
		reject = float64(p.Rejected) / float64(p.Actions)
	}
	rep.set("slurm.action_reject_frac", reject, "ratio")
	rep.set("slurm.mask_stages", float64(p.MaskStages), "count")
	rep.set("slurm.spilled", float64(tot.Spilled), "count")
	rep.set("slurm.requeues", float64(tot.Requeues), "count")
	rep.set("workload.fork_ms_p50", percentile(qs.forkMs, 50), "ms")
	handlerP50 := percentile(qs.handler, 50) * 1e3
	rep.set("schedd.handler_p50_ms", handlerP50, "ms")
	rep.set("schedd.handler_p99_ms", percentile(qs.handler, 99)*1e3, "ms")
	rep.set("schedd.http_overhead_ms", percentile(qs.lat, 50)*1e3-handlerP50, "ms")
	rep.set("schedd.sim_s_per_query", qs.simSPerQ, "s")
	rep.set("runtime.gc_cpu_frac", gcFrac, "ratio")
	rep.set("runtime.bytes_per_job", sumMedians(rs.bytes)/jobs, "bytes")
	rep.set("obs.overhead_frac", sumMedians(rs.traced)/sumMedians(rs.plain)-1, "ratio")
}
