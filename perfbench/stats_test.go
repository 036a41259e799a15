package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{100, 90, 90},
		{21, 50, 11},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 10)
		if !ok || p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g", tc.n, p, v, ok, tc.wantP, tc.wantV)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond)
		}
	}
	if _, _, ok := tailPercentile(seq(19), 10); ok {
		t.Error("19 samples: no reported percentile has 10 beyond it, want ok=false")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := percentile(seq(1000), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}
