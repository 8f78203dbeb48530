package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[n-1-i] = float64(i + 1) // descending, so summarize must sort
	}
	return v
}

func TestSummarizeTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		tail, pct  float64
		beyond     int
		p50        float64
		fallsToP50 bool
	}{
		{n: 100, tail: 90, pct: 90, beyond: 10, p50: 50.5},
		{n: 1000, tail: 990, pct: 99, beyond: 10, p50: 500.5},
		{n: 2400, tail: 2390, pct: 100 * 2390.0 / 2400, beyond: 10, p50: 1200.5},
		{n: 22, tail: 12, pct: 100 * 12.0 / 22, beyond: 10, p50: 11.5},
		{n: 21, fallsToP50: true, p50: 11},
		{n: 15, fallsToP50: true, p50: 8},
		{n: 1, fallsToP50: true, p50: 1},
	} {
		st := summarize(seq(c.n))
		if st.N != c.n || st.P50 != c.p50 {
			t.Errorf("n=%d: N=%d P50=%v, want %d %v", c.n, st.N, st.P50, c.n, c.p50)
		}
		if c.fallsToP50 {
			if st.Tail != st.P50 || st.TailPct != 50 {
				t.Errorf("n=%d: tail %v (p%v), want the median %v", c.n, st.Tail, st.TailPct, st.P50)
			}
			continue
		}
		if st.Tail != c.tail || math.Abs(st.TailPct-c.pct) > 1e-9 || st.Beyond != c.beyond {
			t.Errorf("n=%d: tail %v at p%v with %d beyond, want %v at p%v with %d", c.n, st.Tail, st.TailPct, st.Beyond, c.tail, c.pct, c.beyond)
		}
	}
}

func TestSummarizeTailIsAnExactSample(t *testing.T) {
	v := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 250}
	st := summarize(v)
	// 25 samples: the 11th largest (15) has exactly ten above it.
	if st.Tail != 15 || st.Beyond != 10 {
		t.Fatalf("tail %v with %d beyond, want 15 with 10", st.Tail, st.Beyond)
	}
	if v[0] != 5 {
		t.Fatal("summarize reordered its input")
	}
}

func TestFillRatio(t *testing.T) {
	for _, c := range []struct {
		req, batches uint64
		max          int
		want         float64
	}{
		{req: 32, batches: 1, max: 32, want: 1},
		{req: 780, batches: 100, max: 32, want: 780.0 / 3200},
		{req: 1, batches: 1, max: 32, want: 1.0 / 32},
		{req: 0, batches: 0, max: 32, want: 0},
	} {
		if got := fillRatio(c.req, c.batches, c.max); got != c.want {
			t.Errorf("fillRatio(%d, %d, %d) = %v, want %v", c.req, c.batches, c.max, got, c.want)
		}
	}
}

func TestPoissonScheduleFollowsSeed(t *testing.T) {
	const rate, pool = 120.0, 128
	dur := 20 * time.Second
	a := poissonSchedule(7, rate, dur, pool)
	if !reflect.DeepEqual(a, poissonSchedule(7, rate, dur, pool)) {
		t.Fatal("same seed gave a different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, dur, pool)) {
		t.Fatal("another seed gave the same schedule")
	}
	if len(a) != int(rate*dur.Seconds()) {
		t.Fatalf("%d arrivals, want exactly rate x duration = %d", len(a), int(rate*dur.Seconds()))
	}
	var gaps []float64
	prev := time.Duration(0)
	used := map[int]bool{}
	for _, x := range a {
		if x.At < prev || x.At >= dur {
			t.Fatalf("arrival at %v out of order or outside [0, %v)", x.At, dur)
		}
		if x.Img < 0 || x.Img >= pool {
			t.Fatalf("image %d outside the pool", x.Img)
		}
		used[x.Img] = true
		gaps = append(gaps, (x.At - prev).Seconds())
		prev = x.At
	}
	// Exponential gaps: mean 1/rate and a coefficient of variation near 1.
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if math.Abs(mean*rate-1) > 0.05 || math.Abs(cv-1) > 0.1 {
		t.Errorf("gap mean %v s (want %v), cv %v (want ~1)", mean, 1/rate, cv)
	}
	if len(used) < pool*9/10 {
		t.Errorf("only %d of %d pool images used", len(used), pool)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json and predictions.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program prints %v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := suite[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(names) != len(suite) {
		t.Errorf("BENCHMARK.json names %v, program has %v", names, workloadNames())
	}

	raw, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Predictions []struct {
			Layer     []string
			Moves     map[string][]string
			Unchanged map[string][]string
		}
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	covered := map[string]bool{}
	for _, row := range p.Predictions {
		for _, l := range row.Layer {
			if !known[l] {
				t.Errorf("predictions.json names unknown per-layer metric %q", l)
			}
			covered[l] = true
		}
		for _, m := range []map[string][]string{row.Moves, row.Unchanged} {
			for metric, ws := range m {
				if !containsDef(endToEnd, metric) {
					t.Errorf("predictions.json names unknown end-to-end metric %q", metric)
				}
				for _, w := range ws {
					if _, ok := suite[w]; !ok {
						t.Errorf("predictions.json names unknown workload %q", w)
					}
				}
			}
		}
	}
	for _, d := range perLayer {
		if !covered[d.Name] {
			t.Errorf("per-layer metric %q has no prediction row", d.Name)
		}
	}
}

func containsDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
