package httpsrv

import (
	"net/http"
	"net/url"
	"testing"
	"time"
)

// FuzzClassifyAndSize feeds arbitrary X-PSD-Class, ?class= and ?size=
// strings to the request parsers: classify must land in [0, classes),
// and sizeOf must either refuse the declaration or return a size in
// (0, MaxSize].
func FuzzClassifyAndSize(f *testing.F) {
	for _, seed := range [][3]string{
		{"", "", ""},
		{"1", "", "5"},
		{"", "2", "0.5"},
		{"-1", "7", "-3"},
		{"99999999999999999999", "0x1", "NaN"},
		{" 1", "+1", "Inf"},
		{"", "", "1e6"},
		{"", "", "1.0000000001e6"},
		{"", "", "4.9e-324"},
		{"", "", "0x1p-2"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	s, err := New(Config{Deltas: []float64{1, 2, 4}, Window: 1e9, TimeUnit: time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	n := len(s.cfg.Deltas)
	f.Fuzz(func(t *testing.T, header, class, size string) {
		q := url.Values{}
		if class != "" {
			q.Set("class", class)
		}
		if size != "" {
			q.Set("size", size)
		}
		r := &http.Request{URL: &url.URL{Path: "/", RawQuery: q.Encode()}, Header: http.Header{}}
		if header != "" {
			r.Header.Set("X-PSD-Class", header)
		}
		if c := s.classify(r); c < 0 || c >= n {
			t.Fatalf("classify(header %q, class %q) = %d, want [0, %d)", header, class, c, n)
		}
		got, err := s.sizeOf(r)
		if err == nil && !(got > 0 && got <= s.cfg.MaxSize) {
			t.Fatalf("sizeOf(%q) = %v, want an error or (0, %g]", size, got, s.cfg.MaxSize)
		}
	})
}
