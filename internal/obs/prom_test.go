package obs

import (
	"math"
	"strings"
	"testing"
)

// TestWritePromGolden pins the exposition text byte-for-byte for one of
// every family shape: unlabeled counter, float counter vector, gauge
// (NaN), gauge vector, and a labeled histogram with underflow and
// overflow traffic. Output is deterministic (registration order, dense
// label order), so a golden string is the honest check.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	reall := r.Counter("psd_reallocations_total", "Successful control-loop ticks.")
	rej := r.FloatCounterVec("psd_class_rejected_work_total", "Shed demand in work units.", "class", 2)
	up := r.Gauge("psd_uptime_seconds", "Seconds since server start.")
	rate := r.GaugeVec("psd_class_rate", "Allocated rate per class.", "class", 2)
	slow := r.HistogramVec("psd_class_slowdown", "Per-request slowdown.", "class", 2, -1, 3)

	reall.Add(7)
	rej.At(1).Add(12.5)
	up.Set(math.NaN())
	rate.At(0).Set(0.75)
	rate.At(1).Set(0.25)
	// class 0: one underflow (0.25 < 0.5), one per bucket, one overflow.
	// Dyadic values keep the _sum line byte-stable.
	for _, v := range []float64{0.25, 0.5, 1, 2, 4} {
		slow.At(0).Observe(v)
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP psd_reallocations_total Successful control-loop ticks.
# TYPE psd_reallocations_total counter
psd_reallocations_total 7
# HELP psd_class_rejected_work_total Shed demand in work units.
# TYPE psd_class_rejected_work_total counter
psd_class_rejected_work_total{class="0"} 0
psd_class_rejected_work_total{class="1"} 12.5
# HELP psd_uptime_seconds Seconds since server start.
# TYPE psd_uptime_seconds gauge
psd_uptime_seconds NaN
# HELP psd_class_rate Allocated rate per class.
# TYPE psd_class_rate gauge
psd_class_rate{class="0"} 0.75
psd_class_rate{class="1"} 0.25
# HELP psd_class_slowdown Per-request slowdown.
# TYPE psd_class_slowdown histogram
psd_class_slowdown_bucket{class="0",le="1"} 2
psd_class_slowdown_bucket{class="0",le="2"} 3
psd_class_slowdown_bucket{class="0",le="4"} 4
psd_class_slowdown_bucket{class="0",le="+Inf"} 5
psd_class_slowdown_sum{class="0"} 7.75
psd_class_slowdown_count{class="0"} 5
psd_class_slowdown_bucket{class="1",le="1"} 0
psd_class_slowdown_bucket{class="1",le="2"} 0
psd_class_slowdown_bucket{class="1",le="4"} 0
psd_class_slowdown_bucket{class="1",le="+Inf"} 0
psd_class_slowdown_sum{class="1"} 0
psd_class_slowdown_count{class="1"} 0
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
