package main

import (
	"math/rand"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the reported tail: a
// percentile backed by fewer samples than this is noise, not a tail.
const tailBeyond = 10

// latencyStats summarises raw per-call latencies in milliseconds.  Every
// figure is an order statistic of the samples themselves; nothing passes
// through histogram buckets.
type latencyStats struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail stands for
	Beyond  int     // samples above Tail
	Mean    float64
}

// summarize sorts a copy of the samples and reads the median and the tail.
// The tail is the highest nearest-rank percentile with at least tailBeyond
// samples above it; with fewer than 2·tailBeyond+1 samples no such
// percentile lies above the median, and the tail is reported as the median.
func summarize(ms []float64) latencyStats {
	n := len(ms)
	if n == 0 {
		return latencyStats{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	st := latencyStats{N: n, P50: median(s), Mean: sum / float64(n)}
	k := n - 1 - tailBeyond
	if k <= (n-1)/2 {
		st.Tail, st.TailPct, st.Beyond = st.P50, 50, n/2
		return st
	}
	st.Tail = s[k]
	st.TailPct = 100 * float64(k+1) / float64(n)
	st.Beyond = n - 1 - k
	return st
}

// median of an already sorted, non-empty slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy and returns its median (0 for no samples).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// fillRatio is the share of offered batch slots that carried a request:
// requests / (batches · maxBatch).  The rest of each padded batch is wasted
// work.
func fillRatio(requests, batches uint64, maxBatch int) float64 {
	if batches == 0 || maxBatch <= 0 {
		return 0
	}
	return float64(requests) / (float64(batches) * float64(maxBatch))
}

// arrival is one open-loop request: when it is due, relative to the start of
// the timed phase, and which pool image it carries.
type arrival struct {
	At  time.Duration
	Img int
}

// poissonSchedule draws rate·dur arrivals of a Poisson process over
// [0, dur), each carrying a uniformly chosen pool image.  Given how many
// arrivals fall in a window, a Poisson process places them independently and
// uniformly, so the schedule is that many sorted uniform draws: the gaps stay
// Poisson while the offered load no longer varies by ±√n between seeds.  The
// schedule is a pure function of its arguments.
func poissonSchedule(seed int64, rate float64, dur time.Duration, pool int) []arrival {
	r := rand.New(rand.NewSource(seed))
	at := make([]float64, int(rate*dur.Seconds()))
	for i := range at {
		at[i] = r.Float64() * float64(dur)
	}
	sort.Float64s(at)
	out := make([]arrival, len(at))
	for i, t := range at {
		out[i] = arrival{At: time.Duration(t), Img: r.Intn(pool)}
	}
	return out
}
