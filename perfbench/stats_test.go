package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		q     float64
		value float64
	}{
		{n: 1000, want: 0.99, q: 0.99, value: 990},  // exactly 10 beyond
		{n: 5000, want: 0.99, q: 0.99, value: 4950}, // 50 beyond
		{n: 200, want: 0.99, q: 0.95, value: 190},   // p99 unsupported → p95
		{n: 30, want: 0.99, q: 2.0 / 3, value: 20},  // 10 beyond of 30
		{n: 12, want: 0.99, q: 0.5, value: 6},       // floor at the median
		{n: 5, want: 0.5, q: 0.5, value: 3},
	}
	for _, c := range cases {
		p := tail(seq(c.n), c.want)
		if p.N != c.n {
			t.Errorf("n=%d: sample count %d", c.n, p.N)
		}
		if diff := p.Q - c.q; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("n=%d want=%g: reported q=%g, expected %g", c.n, c.want, p.Q, c.q)
		}
		if p.Value != c.value {
			t.Errorf("n=%d want=%g: value %g, expected %g", c.n, c.want, p.Value, c.value)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > p.Value {
				beyond++
			}
		}
		if c.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if p := tail(nil, 0.99); p.N != 0 || p.String() != "no samples" {
		t.Errorf("empty sample: %+v %q", p, p.String())
	}
	if got := tail(seq(2000), 0.99).String(); got != "p99 of 2000" {
		t.Errorf("label %q", got)
	}
}

func TestBlockedAndMidMean(t *testing.T) {
	if got := midMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midMean = %g, want 3.5 (the middle half: 2,3,4,5)", got)
	}
	if got := midMean([]float64{1, 5}); got != 3 {
		t.Errorf("midMean of two = %g, want their mean", got)
	}
	// Three blocks of 1000: the p99 of each block is its 990th value.
	bs := newBlocks()
	for b := 0; b < 3; b++ {
		for i := blockSize; i >= 1; i-- {
			bs.add(float64(i + b*10))
		}
	}
	p := bs.pct(0.99)
	if p.Blocks != 3 || p.N != 3*blockSize || p.Q != 0.99 {
		t.Fatalf("blocked: %+v", p)
	}
	if p.Value != 1000 { // mean of 990, 1000, 1010
		t.Errorf("blocked p99 = %g, want 1000", p.Value)
	}
	if p := bs.pct(0.5); p.Value != 510 || p.Blocks != 3 { // mean of 500, 510, 520
		t.Errorf("blocked p50: %+v, want 510 over 3 blocks", p)
	}
	small := newBlocks()
	for _, x := range seq(50) {
		small.add(x)
	}
	if small := small.pct(0.99); small.Blocks != 0 || small.N != 50 {
		t.Errorf("fewer samples than a block: %+v", small)
	}
}
