package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building profiles in tests.
type pb struct{ b []byte }

func (p *pb) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }

func (p *pb) varint(num int, v uint64) {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

// testProfile builds a CPU profile whose samples charge known CPU
// nanoseconds to known leaf functions. Location 7 inlines a shmem
// function into an apps one: its innermost (first) line is shmem.
func testProfile(t *testing.T, zip bool) []byte {
	t.Helper()
	funcs := []string{
		"repro/internal/sim.(*Engine).Run",
		"repro/internal/apps.(*Instance).iterate",
		"repro/internal/shmem.(*Registry).Get",
		"repro/internal/core.(*System).PollDROM",
		"repro/internal/sched.(*fcfs).Schedule",
		"repro/internal/slurm.(*Controller).schedCycle",
		"runtime.mallocgc",
		"internal/runtime/maps.(*Map).getWithKeySmall",
		"net/http.(*conn).serve",
		"repro/internal/workload.(*Session).Fork",
	}
	var p pb
	var st [][]byte
	st = append(st, []byte(""), []byte("samples"), []byte("count"), []byte("cpu"), []byte("nanoseconds"))
	for i, name := range funcs {
		st = append(st, []byte(name))
		var f pb
		f.varint(1, uint64(i+1))
		f.varint(2, uint64(len(st)-1))
		p.bytes(5, f.b)
		var l, line pb
		l.varint(1, uint64(i+1))
		line.varint(1, uint64(i+1))
		l.bytes(4, line.b)
		p.bytes(4, l.b)
	}
	// Location 11: shmem.Get (fn 3) inlined into apps.iterate (fn 2).
	var l, inner, outer pb
	l.varint(1, 11)
	inner.varint(1, 3)
	outer.varint(1, 2)
	l.bytes(4, inner.b)
	l.bytes(4, outer.b)
	p.bytes(4, l.b)

	var vt pb
	vt.varint(1, 1)
	vt.varint(2, 2)
	p.bytes(1, vt.b)
	vt = pb{}
	vt.varint(1, 3)
	vt.varint(2, 4)
	p.bytes(1, vt.b)

	sample := func(leaf uint64, ns uint64, packed bool) {
		var s pb
		if packed {
			s.packed(1, leaf, 1) // leaf first, then a caller
			s.packed(2, ns/10_000_000, ns)
		} else {
			s.varint(1, leaf)
			s.varint(1, 1)
			s.varint(2, ns/10_000_000)
			s.varint(2, ns)
		}
		p.bytes(2, s.b)
	}
	sample(1, 100e6, true)  // sim
	sample(2, 300e6, false) // apps
	sample(11, 50e6, true)  // shmem via inlining
	sample(4, 50e6, true)   // core counts as shmem
	sample(5, 40e6, false)  // sched
	sample(6, 60e6, true)   // slurm
	sample(7, 200e6, true)  // runtime
	sample(8, 100e6, true)  // internal/runtime
	sample(9, 60e6, true)   // other
	sample(10, 40e6, false) // other
	for _, s := range st {
		p.bytes(6, s)
	}
	if !zip {
		return p.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesBucketsByPackage(t *testing.T) {
	want := map[string]float64{
		"sim": 0.1, "apps": 0.3, "shmem": 0.1, "sched": 0.04,
		"slurm": 0.06, "runtime": 0.3, "other": 0.1,
	}
	for _, zip := range []bool{true, false} {
		shares, n, err := cpuShares(testProfile(t, zip))
		if err != nil {
			t.Fatal(err)
		}
		if n != 10 {
			t.Errorf("zip=%v: %d samples, want 10", zip, n)
		}
		total := 0.0
		for _, b := range layerBuckets {
			total += shares[b]
			if math.Abs(shares[b]-want[b]) > 1e-12 {
				t.Errorf("zip=%v: %s share %g, want %g", zip, b, shares[b], want[b])
			}
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("zip=%v: shares sum to %g", zip, total)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/apps.(*Instance).iterate": "repro/internal/apps",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).Get":        "internal/runtime/maps",
		"main.main.func1":                         "main",
		"gopkg.in/x.v2/y.F":                       "gopkg.in/x.v2/y",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesRejectsTruncatedProfile(t *testing.T) {
	raw := testProfile(t, false)
	if _, _, err := cpuShares(raw[:len(raw)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
