package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples rests on two values, so the tail
// the benchmark reports drops to the highest percentile the sample
// count supports.
const minBeyond = 10

// dist is a latency or duration sample summary: the median and the
// highest percentile, at most maxTail, that has at least minBeyond
// samples beyond it.
type dist struct {
	N    int
	P50  float64
	Tail float64
	// TailPct is the percentile Tail reports (99 when N ≥ 1000); 0
	// when N is too small to support any tail above the median.
	TailPct int
}

// maxTail is the percentile the end-to-end tail metrics name.
const maxTail = 99

// summarize sorts a copy of samples and returns their distribution
// summary using nearest-rank percentiles.
func summarize(samples []float64) dist {
	d := dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.P50 = s[rank(d.N, 50)]
	if p := tailPercentile(d.N); p > 50 {
		d.TailPct = p
		d.Tail = s[rank(d.N, p)]
	}
	return d
}

// tailPercentile is the highest whole percentile, at most maxTail,
// whose nearest-rank value leaves at least minBeyond samples above it:
// p·n/100 ≤ n−minBeyond.
func tailPercentile(n int) int {
	if n <= minBeyond {
		return 0
	}
	p := 100 * (n - minBeyond) / n
	if p > maxTail {
		p = maxTail
	}
	return p
}

// rank is the 0-based nearest-rank index of percentile p among n
// sorted samples: ceil(p·n/100) − 1.
func rank(n, p int) int {
	i := (p*n+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// String renders the summary for the human-readable report.
func (d dist) String() string {
	if d.TailPct == 0 {
		return fmt.Sprintf("n=%d p50=%.4g", d.N, d.P50)
	}
	return fmt.Sprintf("n=%d p50=%.4g p%d=%.4g", d.N, d.P50, d.TailPct, d.Tail)
}
