package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// the benchmark to report it: a p99 needs at least 1000 samples.
const minBeyond = 10

// pct is one reported percentile: which quantile was actually reported,
// its value, and the sample count it rests on.
type pct struct {
	Q     float64
	Value float64
	N     int
	// Blocks, when non-zero, says Value is the interquartile mean over
	// that many consecutive blocks of N/Blocks samples of each block's
	// Q-quantile.
	Blocks int
}

func (p pct) String() string {
	if p.N == 0 {
		return "no samples"
	}
	q := math.Round(p.Q*1000) / 10
	if p.Blocks > 0 {
		return fmt.Sprintf("interquartile mean over %d blocks of the p%g of %d", p.Blocks, q, p.N/p.Blocks)
	}
	return fmt.Sprintf("p%g of %d", q, p.N)
}

// rank returns the nearest-rank q-quantile of sorted samples.
func rank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// tail reports the want-quantile of samples, or, when fewer than minBeyond
// samples would lie beyond it, the highest quantile that keeps minBeyond
// samples beyond it. It never reports below the median: with too few
// samples for any tail the median stands in, and pct.Q says so.
func tail(samples []float64, want float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{Q: want}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	q := want
	if most := float64(n-minBeyond) / float64(n); q > most {
		q = most
	}
	if q < 0.5 {
		q = 0.5
	}
	return pct{Q: q, Value: rank(sorted, q), N: n}
}

// blockSize is how many consecutive samples one block of a blocked
// percentile holds: enough for a p99 with minBeyond samples beyond it.
const blockSize = 100 * minBeyond

// blockQs are the quantiles blocks keeps of each full block.
var blockQs = [...]float64{0.5, 0.99}

// blocks computes blocked percentiles as samples arrive. It splits the
// samples, in the order they are taken, into consecutive blocks of
// blockSize and keeps only the block being filled and each full block's
// p50 and p99, so its memory does not grow with the number of samples.
//
// A blocked percentile is the interquartile mean over the blocks of each
// block's percentile. A burst that slows a few blocks moves it little,
// where it would dominate one percentile over the whole run; and where the
// machine's speed drifts between states over a run, the mean moves
// smoothly with the time spent in each, where a median would jump from one
// state to the other.
type blocks struct {
	cur  []float64
	full int
	per  [len(blockQs)][]float64
}

func newBlocks() *blocks {
	b := &blocks{cur: make([]float64, 0, blockSize)}
	for i := range b.per {
		b.per[i] = make([]float64, 0, 1024)
	}
	return b
}

func (b *blocks) add(x float64) {
	b.cur = append(b.cur, x)
	if len(b.cur) < blockSize {
		return
	}
	sort.Float64s(b.cur)
	for i, q := range blockQs {
		b.per[i] = append(b.per[i], rank(b.cur, q))
	}
	b.full++
	b.cur = b.cur[:0]
}

// pct reports the blocked want-quantile, want one of blockQs. Before the
// first block is full it is tail of the samples taken so far.
func (b *blocks) pct(want float64) pct {
	if b.full == 0 {
		return tail(b.cur, want)
	}
	for i, q := range blockQs {
		if q == want {
			return pct{Q: q, Value: midMean(b.per[i]), N: b.full * blockSize, Blocks: b.full}
		}
	}
	panic(fmt.Sprintf("blocks keep no p%g", 100*want))
}

// midMean is the interquartile mean: the mean of the middle half of xs
// (of all of them when there are fewer than four).
func midMean(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n := len(sorted); n >= 4 {
		sorted = sorted[n/4 : n-n/4]
	}
	return mean(sorted)
}

// median is the 0.5 nearest-rank quantile of samples.
func median(samples []float64) pct { return tail(samples, 0.5) }

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
