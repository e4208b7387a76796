package stats

import (
	"math"
	"testing"
)

// foldBatches feeds xs to a Welford through Windows, folding before every
// index listed in cuts (an index may repeat, folding an empty batch) and
// once at the end.
func foldBatches(xs []float64, cuts []int) Welford {
	var w Welford
	var b Window
	c := 0
	for i, x := range xs {
		for c < len(cuts) && cuts[c] == i {
			b.FoldInto(&w)
			c++
		}
		b.Add(x)
	}
	b.FoldInto(&w)
	return w
}

// checkFoldMatchesWelford compares foldBatches(xs, cuts) with a Welford fed
// xs one Add at a time: count and extremes exactly, the mean within 1e-12
// relative and the variance within 1e-9 relative.
func checkFoldMatchesWelford(t *testing.T, xs []float64, cuts []int) {
	t.Helper()
	var want Welford
	for _, x := range xs {
		want.Add(x)
	}
	got := foldBatches(xs, cuts)
	if got.N() != want.N() {
		t.Fatalf("n = %d, want %d", got.N(), want.N())
	}
	if want.N() == 0 {
		if !math.IsNaN(got.Mean()) || !math.IsNaN(got.Max()) {
			t.Fatalf("empty fold reports mean %v max %v", got.Mean(), got.Max())
		}
		return
	}
	if got.Min() != want.Min() || got.Max() != want.Max() {
		t.Fatalf("min/max = %v/%v, want %v/%v", got.Min(), got.Max(), want.Min(), want.Max())
	}
	if !relClose(got.Mean(), want.Mean(), 1e-12) {
		t.Fatalf("mean = %.17g, want %.17g", got.Mean(), want.Mean())
	}
	if want.N() < 2 {
		if !math.IsNaN(got.Variance()) {
			t.Fatalf("variance of one value = %v", got.Variance())
		}
		return
	}
	if !relClose(got.Variance(), want.Variance(), 1e-9) {
		t.Fatalf("variance = %.17g, want %.17g", got.Variance(), want.Variance())
	}
}

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestWindowMean pins the batch mean the simulator reports per window:
// Σx/n with the sum taken in Add order, NaN for an empty batch, and a
// fresh batch after a fold.
func TestWindowMean(t *testing.T) {
	var b Window
	if !math.IsNaN(b.Mean()) {
		t.Fatalf("empty batch mean = %v, want NaN", b.Mean())
	}
	xs := []float64{0.1, 0.2, 0.3, 1e9, 3}
	sum := 0.0
	for _, x := range xs {
		b.Add(x)
		sum += x
	}
	if got, want := b.Mean(), sum/float64(len(xs)); got != want {
		t.Fatalf("mean = %.17g, want Σx/n = %.17g", got, want)
	}
	var w Welford
	b.FoldInto(&w)
	if !math.IsNaN(b.Mean()) {
		t.Fatalf("folded batch mean = %v, want NaN", b.Mean())
	}
	b.Add(5)
	if b.Mean() != 5 {
		t.Fatalf("batch after a fold: mean = %v, want 5", b.Mean())
	}
}

func TestWindowFoldMatchesWelford(t *testing.T) {
	ramp := make([]float64, 300)
	for i := range ramp {
		ramp[i] = 1e3 + float64(i%17)*0.25
	}
	// An outlier K opening a long window of small values: K + Σ(x − K)/n
	// misses the mean by 7e-12 relative here; Σx/n does not.
	outlierFirst := []float64{1e7}
	for i := 0; i < 1000; i++ {
		outlierFirst = append(outlierFirst, math.Pow(10, -3+3*float64(i%17)/17))
	}
	for _, tc := range []struct {
		name string
		xs   []float64
		cuts []int
	}{
		{"nothing", nil, nil},
		{"only empty windows", nil, []int{0, 0, 0}},
		{"one value", []float64{3.5}, nil},
		{"windows of one value", []float64{4, 1, 9, 2.5, 7}, []int{1, 2, 3, 4}},
		{"empty windows between", []float64{2, 4, 4, 4, 5, 5, 7, 9}, []int{0, 0, 3, 3, 3, 7, 7}},
		{"zeros", []float64{0, 0, 0, 2, 0, 0}, []int{2}},
		{"first value an outlier", append([]float64{1e9}, ramp[:40]...), []int{20}},
		{"an outlier first among small values", outlierFirst, nil},
		{"outlier opens each window", []float64{1e9, 1, 2, 3, 1e9, 2, 1, 3, 1e9, 5}, []int{4, 8}},
		{"far from zero, close together", ramp, []int{100, 101, 250}},
		{"1e-6 to 1e9", []float64{1e-6, 1e9, 3e-3, 42, 7e5, 1e-6, 8e8, 0.5}, []int{3, 5}},
		{"one window", ramp, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { checkFoldMatchesWelford(t, tc.xs, tc.cuts) })
	}
}

// FuzzWindowFoldMatchesWelford cuts an arbitrary sequence of values
// between 1e-6 and 1e9 (and zeros) into arbitrary windows, empty and
// single-value ones included, and holds the folded Welford to one fed
// value by value.
func FuzzWindowFoldMatchesWelford(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 0xff, 0xff, 0, 0x10, 0x00, 3, 0x10, 0x01, 0, 0x10, 0x02})
	f.Add([]byte{7, 0x80, 0x00, 7, 0x80, 0x00, 7, 0x40, 0x00, 2, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Three bytes a value: a cut code (0 mod 4: fold before it,
		// 1 mod 8: fold twice), then a 16-bit log-scale position
		// (0 is the value 0).
		var xs []float64
		var cuts []int
		for ; len(data) >= 3 && len(xs) < 1024; data = data[3:] {
			switch {
			case data[0]%8 == 1:
				cuts = append(cuts, len(xs), len(xs))
			case data[0]%4 == 0:
				cuts = append(cuts, len(xs))
			}
			u := uint16(data[1])<<8 | uint16(data[2])
			x := 0.0
			if u > 0 {
				x = math.Pow(10, -6+15*float64(u-1)/65534)
			}
			xs = append(xs, x)
		}
		checkFoldMatchesWelford(t, xs, cuts)
	})
}
