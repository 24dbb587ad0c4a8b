package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.05, 10}, {0.10, 10}, {0.11, 20}, {0.50, 50}, {0.51, 60},
		{0.75, 80}, {0.90, 90}, {0.99, 100}, {1, 100},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestOrderStatisticsIgnoreOrder(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 8, 7, 6, 10, 9}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5 (nearest rank of 10 samples)", got)
	}
	if got := fastDecile(xs); got != 1 {
		t.Errorf("fastDecile = %v, want 1", got)
	}
	if got := fastDecileRate(xs, 100); got != 100 {
		t.Errorf("fastDecileRate = %v, want 100 ops in the fastest decile's 1 s", got)
	}
	if xs[0] != 5 {
		t.Error("estimators must not reorder their input")
	}
}

// Slow units must not move the fast-decile rate, and stalled segments must
// not move the quiet decile's percentile: that is the whole point of rule
// 3. The median over segments, by contrast, follows the run's typical state.
func TestFastSideEstimatorsShrugOffInterference(t *testing.T) {
	secs := make([]float64, 100)
	for i := range secs {
		secs[i] = 1
	}
	clean := fastDecileRate(secs, 50)
	for i := 0; i < 60; i++ {
		secs[i] = 1.4 // a slow episode covering most of the run
	}
	if got := fastDecileRate(secs, 50); got != clean {
		t.Errorf("fast-decile rate moved from %v to %v under interference", clean, got)
	}

	var lat []float64
	for seg := 0; seg < 10; seg++ {
		for i := 0; i < 100; i++ {
			v := 1.0
			if i >= 98 {
				v = 3 // the segment's own tail
			}
			if seg >= 4 {
				v *= 1.5 // six of ten segments run in a slow episode
			}
			if seg == 2 && i >= 50 {
				v = 40 // a stall covering half of one quiet segment
			}
			lat = append(lat, v)
		}
	}
	if got := quietSegments(lat, 10, 0.50); got != 1 {
		t.Errorf("quiet-decile p50 = %v, want 1", got)
	}
	if got := quietSegments(lat, 10, 0.99); got != 3 {
		t.Errorf("quiet-decile p99 = %v, want 3", got)
	}
	if got := medianOfSegments(lat, 10, 0.50); got != 1.5 {
		t.Errorf("median of segment p50 = %v, want 1.5 (the run's typical state)", got)
	}
	if p99s := segmentQuantile(lat, 10, 0.99); p99s[2] != 40 {
		t.Errorf("stalled segment's own p99 = %v, want 40", p99s[2])
	}
}

func TestSegmentQuantileDropsTheRemainder(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7}
	got := segmentQuantile(samples, 3, 1)
	want := []float64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("segments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d max = %v, want %v", i, got[i], want[i])
		}
	}
	if segmentQuantile(samples[:2], 3, 1) != nil {
		t.Error("fewer samples than segments must yield no segments")
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25]; the median 5.5.
func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	xs := []float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 6], n=4) is [3.0, 4.0, 5.5].
	if got, want := quartileSpread([]float64{4, 2, 6, 4, 5}), (5.5-3.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("constant values spread %v, want 0", got)
	}
}

func TestMedianInterp(t *testing.T) {
	if got := medianInterp([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianInterp = %v, want 2.5", got)
	}
	if got := medianInterp([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianInterp = %v, want 5", got)
	}
}

func TestWorseningFollowsTheMetricDirection(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 worsened by %v, want 0.10", got)
	}
	if got := worsening(lower, 100, 90); got >= 0 {
		t.Errorf("lower-is-better 100→90 is an improvement, got %v", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worsened by %v, want 0.10", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("higher-is-better 100→120 is an improvement, got %v", got)
	}
}

func TestScaledKeepsWholeSegments(t *testing.T) {
	for _, c := range []struct {
		n     int
		scale float64
		unit  int
		want  int
	}{
		{140, 1, segments, 140}, {140, 0.5, segments, 70}, {140, 0.001, segments, segments},
		{30_000, 2, latencySegments, 60_000},
		// The closed loop's rate reads one unit per fineSegments-th of the
		// phase: a driver-supplied -seconds must never leave a unit empty.
		{40_000, 0.0004, fineSegments, fineSegments}, {40_000, 0.00123, fineSegments, fineSegments},
		{300_000, 1, fineSegments, 300_000},
	} {
		if got := scaled(c.n, c.scale, c.unit); got != c.want {
			t.Errorf("scaled(%d, %v, %d) = %d, want %d", c.n, c.scale, c.unit, got, c.want)
		}
	}
}
