package main

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"time"
)

// pctl summarizes exact latency samples: the median, p99, and the highest
// percentile that still has at least ten samples beyond it, each with the
// count it rests on. Samples are kept exactly — no bucketing — so a 30%
// change shows as 30%.
type pctl struct {
	N        int     `json:"n"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	Beyond99 int     `json:"beyond_p99"`
	TopLabel string  `json:"top_label"`
	TopUs    float64 `json:"top_us"`
}

// summarize sorts d in place and summarizes it.
func summarize(d []time.Duration) pctl {
	if len(d) == 0 {
		return pctl{}
	}
	slices.Sort(d)
	n := len(d)
	p := pctl{N: n, P50us: us(quantile(d, 0.50)), P99us: us(quantile(d, 0.99))}
	p.Beyond99 = n - 1 - rank(n, 0.99)
	top := topQuantile(n)
	p.TopLabel = strconv.FormatFloat(100*top, 'g', 6, 64)
	p.TopUs = us(quantile(d, top))
	return p
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[rank(len(sorted), q)]
}

// topQuantile is the highest of p50, p90, p99, p99.9, ... that leaves at
// least ten of n samples above its rank.
func topQuantile(n int) float64 {
	best := 0.5
	for q := 0.9; ; q = 1 - (1-q)/10 {
		if n-1-rank(n, q) < 10 {
			return best
		}
		best = q
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float slice (sorted in place); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// windowed splits samples into windows by the schedule index each was
// taken at (indices first..first+n; one window per entry of keep) and
// returns the median over the kept windows of each window's p50 and p99,
// and every window's p99.
func windowed(lat []time.Duration, at []int32, first, n int, keep []bool) (p50, p99 float64, m99 []float64) {
	k := len(keep)
	win := make([][]time.Duration, k)
	for j, d := range lat {
		w := min((int(at[j])-first)*k/n, k-1)
		win[w] = append(win[w], d)
	}
	var m50, k99 []float64
	for w, d := range win {
		if len(d) == 0 {
			continue
		}
		p := summarize(d)
		m99 = append(m99, p.P99us)
		if keep[w] {
			m50 = append(m50, p.P50us)
			k99 = append(k99, p.P99us)
		}
	}
	return median(m50), median(k99), m99
}

// minClean is the fewest windows a median is taken over.
const minClean = 3

func countClean(clean []bool) int {
	n := 0
	for _, c := range clean {
		if c {
			n++
		}
	}
	return n
}

// kept marks the windows a median is taken over: the clean ones, or, when
// fewer than minClean are clean, the minClean with the lowest score (the
// host's steal in them). A steal storm then costs a run its disturbed
// windows, not its figure.
func kept(clean []bool, score []int64) []bool {
	if countClean(clean) >= minClean {
		return clean
	}
	idx := make([]int, len(score))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(score[a], score[b]) })
	mask := make([]bool, len(score))
	for _, i := range idx[:min(minClean, len(idx))] {
		mask[i] = true
	}
	return mask
}

// medianOver is the median of the entries of v that keep marks.
func medianOver(v []float64, keep []bool) float64 {
	var m []float64
	for i, x := range v {
		if keep[i] {
			m = append(m, x)
		}
	}
	return median(m)
}
