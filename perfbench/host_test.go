package main

import (
	"math"
	"testing"
)

func TestScaleToTheReferenceKernelTime(t *testing.T) {
	if f := scale(nil); f != 1 {
		t.Errorf("no kernel runs: scale %g, want 1", f)
	}
	// A host at half the reference speed: times count half, whatever
	// a few kernel runs far off say.
	k := []float64{2 * calibRefS, 100, 2 * calibRefS, 0.001, 2 * calibRefS}
	if f := scale(k); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("scale %g, want 0.5 from the median kernel time", f)
	}
}

func TestKernelAllocatesNothing(t *testing.T) {
	h := newHostSpeed()
	if n := testing.AllocsPerRun(5, h.kernel); n != 0 {
		t.Errorf("kernel allocates %g times per run", n)
	}
	if k := h.calibrate(); k <= 0 || k > 1 {
		t.Errorf("kernel took %g s", k)
	}
}
