package main

import (
	"math"
	"strings"

	"github.com/auditgames/sag/internal/obs"
)

// familyOf strips the label set from a series key.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// counter sums every series of a counter family.
func counter(s obs.Snapshot, name string) float64 {
	total := 0.0
	for k, v := range s.Counters {
		if familyOf(k) == name {
			total += float64(v)
		}
	}
	return total
}

// gauges sums and maxes every series of a gauge family.
func gauges(s obs.Snapshot, name string) (sum, most float64) {
	most = math.Inf(-1)
	for k, v := range s.Gauges {
		if familyOf(k) == name {
			sum += v
			most = math.Max(most, v)
		}
	}
	if math.IsInf(most, -1) {
		most = 0
	}
	return sum, most
}

// hist merges every series of a histogram family (all share one bucket
// layout).
func hist(s obs.Snapshot, name string) obs.HistogramData {
	var out obs.HistogramData
	for k, h := range s.Histograms {
		if familyOf(k) != name {
			continue
		}
		if out.Buckets == nil {
			out.Buckets = make([]obs.Bucket, len(h.Buckets))
			for i, b := range h.Buckets {
				out.Buckets[i].UpperBound = b.UpperBound
			}
		}
		for i, b := range h.Buckets {
			out.Buckets[i].Count += b.Count
		}
		out.Sum += h.Sum
		out.Count += h.Count
	}
	return out
}

// histDiff is after−before for one merged family.
func histDiff(before, after obs.HistogramData) obs.HistogramData {
	out := obs.HistogramData{Sum: after.Sum - before.Sum, Count: after.Count - before.Count}
	for i, b := range after.Buckets {
		c := b.Count
		if i < len(before.Buckets) {
			c -= before.Buckets[i].Count
		}
		out.Buckets = append(out.Buckets, obs.Bucket{UpperBound: b.UpperBound, Count: c})
	}
	return out
}

// histQuantile estimates the q-quantile of a cumulative-bucket histogram
// by linear interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does. The result is only as fine as the buckets.
func histQuantile(h obs.HistogramData, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	lower, prev := 0.0, uint64(0)
	for _, b := range h.Buckets {
		if float64(b.Count) >= target {
			if math.IsInf(b.UpperBound, 1) {
				return lower
			}
			inBucket := float64(b.Count - prev)
			if inBucket == 0 {
				return b.UpperBound
			}
			return lower + (b.UpperBound-lower)*(target-float64(prev))/inBucket
		}
		lower, prev = b.UpperBound, b.Count
	}
	return lower
}

// seriesCount is the number of series in the registry.
func seriesCount(s obs.Snapshot) int {
	return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
}
