package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The benchmark runs on shared hosts whose speed is not its own: on
// the 2-core host it was sized on, the same replay ran anywhere from
// 4,000 to 7,500 jobs/s, in spells of seconds to minutes, as other
// tenants came and went, and a fixed kernel of CPU and memory work
// that touches none of the repository's code slowed down with it. So
// the benchmark times that kernel after every set-up step, every
// replay and every few what-if blocks, each time at a quiet point:
// after a full collection, with nothing else running. It reports its
// end-to-end times scaled to a host on which the kernel takes
// calibRefS: a time t counts as t * calibRefS / k, where k is, for a
// replay, the mean of the kernel runs right before and after it; for
// the what-ifs, the median kernel time while measuring; for set-up,
// the median kernel time during set-up. A change to the program moves
// the scaled times; a change of the host's speed moves the kernel with
// them.
const (
	calibRefS = 0.030    // the kernel's time on the reference host
	calibKeys = 64 << 10 // ints sorted per kernel run
	// The kernel chases pointers through a table that fits in the
	// processor's caches and through one that does not: the 100k-job
	// replay slowed with both kinds of memory access.
	calibNear, calibNearSteps = 1 << 19, 128 << 10 // 2 MiB table
	calibFar, calibFarSteps   = 1 << 22, 96 << 10  // 16 MiB table
)

// hostSpeed runs the calibration kernel. Its buffers are allocated
// once, so the kernel allocates nothing.
type hostSpeed struct {
	keys, buf []int
	m         map[int]int32
	near, far []int32
	sink      int32
}

func newHostSpeed() *hostSpeed {
	rng := rand.New(rand.NewSource(1))
	h := &hostSpeed{keys: make([]int, calibKeys), buf: make([]int, calibKeys), m: make(map[int]int32, calibKeys/4)}
	for i := range h.keys {
		h.keys[i] = rng.Int()
	}
	h.near = chaseTable(rng, calibNear)
	h.far = chaseTable(rng, calibFar)
	return h
}

// chaseTable is one random cycle through n entries, so a chase visits
// every entry in an order the prefetcher cannot follow.
func chaseTable(rng *rand.Rand, n int) []int32 {
	perm := rng.Perm(n)
	t := make([]int32, n)
	for i := range perm {
		t[perm[i]] = int32(perm[(i+1)%n])
	}
	return t
}

// calibrate collects the heap, so no collector work runs alongside,
// then times the kernel once and returns its seconds.
func (h *hostSpeed) calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	h.kernel()
	return time.Since(t0).Seconds()
}

// kernel sorts, hashes and chases pointers: the kinds of work the
// simulator's event queue, tables and object graphs do.
func (h *hostSpeed) kernel() {
	copy(h.buf, h.keys)
	slices.Sort(h.buf)
	clear(h.m)
	for i, k := range h.buf[:len(h.buf)/4] {
		h.m[k] = int32(i)
	}
	j := h.sink
	for range calibNearSteps {
		j = h.near[j]
	}
	for range calibFarSteps {
		j = h.far[j]
	}
	h.sink = j % calibNear
}

// scale is what a time is multiplied by to give the time at the
// reference speed, given the kernel's times while it was measured: 1
// when the kernel never ran.
func scale(kernel []float64) float64 {
	if len(kernel) == 0 {
		return 1
	}
	return calibRefS / median(kernel)
}
