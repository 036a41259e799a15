package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// span is one traced interval. Spans of one what-if request share
// Req; a pass span's Parent is its cycle. Times are nanoseconds since
// the run started.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// probeCounts are the deterministic counts the probe bus yields for
// one replay.
type probeCounts struct {
	Passes     int64 `json:"passes"`      // KindPass
	Cycles     int64 `json:"cycles"`      // KindCycleEnd
	Actions    int64 `json:"actions"`     // KindAction attempted
	Rejected   int64 `json:"rejected"`    // skipped or blocked by a reservation
	MaskStages int64 `json:"mask_stages"` // executed shrinks and expands
}

func (c probeCounts) minus(d probeCounts) probeCounts {
	return probeCounts{c.Passes - d.Passes, c.Cycles - d.Cycles, c.Actions - d.Actions, c.Rejected - d.Rejected, c.MaskStages - d.MaskStages}
}

// recorder is the traced run's obs.Probe: it counts passes, cycles and
// actions, keeps their wall durations, and (when spans is set) one
// span per cycle and pass.
type recorder struct {
	probeCounts
	base       time.Time
	keepSpans  bool
	spans      []span
	nextID     int64
	cycleID    int64
	cycleStart time.Time
	passNs     []float64
	cycleNs    []float64
}

func (r *recorder) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindCycleStart:
		r.nextID++
		r.cycleID = r.nextID
		if r.keepSpans {
			r.cycleStart = time.Now()
		}
	case obs.KindPass:
		r.Passes++
		r.passNs = append(r.passNs, float64(ev.WallNanos))
		if r.keepSpans {
			r.nextID++
			end := time.Since(r.base).Nanoseconds()
			r.spans = append(r.spans, span{Name: "sched.pass", ID: r.nextID, Parent: r.cycleID, Start: end - ev.WallNanos, End: end})
		}
	case obs.KindCycleEnd:
		r.Cycles++
		r.cycleNs = append(r.cycleNs, float64(ev.WallNanos))
		if r.keepSpans {
			start := r.cycleStart.Sub(r.base).Nanoseconds()
			r.spans = append(r.spans, span{Name: "slurm.cycle", ID: r.cycleID, Start: start, End: start + ev.WallNanos})
		}
	case obs.KindAction:
		r.Actions++
		switch ev.Reason {
		case obs.ReasonSkipped, obs.ReasonBlockedByReservation:
			r.Rejected++
		case obs.ReasonStarted:
			if ev.Act == obs.ActShrink || ev.Act == obs.ActExpand {
				r.MaskStages++
			}
		}
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// heapWatch samples the live heap (the bytes the last GC cycle marked
// reachable) every few milliseconds and keeps the high-water mark. The
// live heap, unlike the heap's total object bytes, does not depend on
// when the collector happened to run.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	max  uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.max {
				h.max = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the high-water mark in bytes.
func (h *heapWatch) peak() uint64 {
	close(h.stop)
	<-h.done
	return h.max
}

// gcCPU reads the cumulative GC and total CPU seconds the runtime
// estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expectations are the exact counts of the first run of this build on
// one workload and seed, kept on disk so every later run of the same
// binary can be held to them. Values are compared in their JSON form,
// which round-trips every float64 exactly.
type expectations struct {
	path   string
	dirty  bool
	Counts map[string]json.RawMessage `json:"counts"`
}

func loadExpectations(path string) (*expectations, error) {
	e := &expectations{path: path, Counts: map[string]json.RawMessage{}}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// same holds got to the value recorded under key, or records it when
// this is the first run to measure it.
func (e *expectations) same(key string, got any) error {
	b, err := json.Marshal(got)
	if err != nil {
		return err
	}
	prev, ok := e.Counts[key]
	if !ok {
		e.Counts[key] = b
		e.dirty = true
		return nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, prev); err != nil {
		return fmt.Errorf("%s: %w", e.path, err)
	}
	if !bytes.Equal(buf.Bytes(), b) {
		return fmt.Errorf("%s %s differ from the first run of this build: %s", key, b, prev)
	}
	return nil
}

// save writes the expectations back when a first value was recorded.
func (e *expectations) save() error {
	if !e.dirty {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(e.path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	tmp := e.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, e.path)
}
