package simsrv

import (
	"sort"
	"testing"

	"psd/internal/core"
)

// TestCommonRandomNumbersAcrossPolicies pins what the per-component
// streams guarantee now that a variate consumes a variable number of
// words (internal/rng's package doc): class i's inter-arrival times come
// from stream 2i+1 and its sizes from stream 2i+2 of the replication's
// source, nothing else draws from either, so the (arrival time, size)
// sequence each class is offered is a function of the seed alone — the
// same under every allocation policy, which is what makes a policy
// comparison at equal seeds a paired one.
func TestCommonRandomNumbersAcrossPolicies(t *testing.T) {
	type offered struct{ arrival, size float64 }
	run := func(policy string) [][]offered {
		t.Helper()
		al, err := core.Parse(policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg := EqualLoadConfig([]float64{1, 2, 4}, 0.85, nil)
		cfg.Allocator = al
		cfg.Warmup, cfg.Horizon, cfg.Seed = 1000, 9000, 5
		cfg.RecordRequests, cfg.RecordFrom, cfg.RecordTo = true, 0, cfg.Warmup+cfg.Horizon
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perClass := make([][]offered, len(cfg.Classes))
		for _, r := range res.Records {
			perClass[r.Class] = append(perClass[r.Class], offered{r.Arrival, r.Size})
		}
		for _, seq := range perClass {
			sort.Slice(seq, func(i, j int) bool { return seq[i].arrival < seq[j].arrival })
		}
		return perClass
	}
	// between trims seq to the arrivals inside [from, to]: a policy
	// decides when a request completes, hence which requests finish
	// inside the recorded span, but not which were offered.
	between := func(seq []offered, from, to float64) []offered {
		lo := sort.Search(len(seq), func(i int) bool { return seq[i].arrival >= from })
		hi := sort.Search(len(seq), func(i int) bool { return seq[i].arrival > to })
		return seq[lo:hi]
	}
	ref := run("psd")
	for _, policy := range []string{"equal", "downgrade"} {
		got := run(policy)
		for class := range ref {
			a, b := ref[class], got[class]
			if len(a) == 0 || len(b) == 0 {
				t.Fatalf("%s class %d: nothing recorded", policy, class)
			}
			from := max(a[0].arrival, b[0].arrival)
			to := min(a[len(a)-1].arrival, b[len(b)-1].arrival)
			a, b = between(a, from, to), between(b, from, to)
			if len(a) < 1000 {
				t.Fatalf("%s class %d: only %d requests in the common span", policy, class, len(a))
			}
			if len(a) != len(b) {
				t.Fatalf("%s class %d: %d requests offered, psd saw %d in the same span", policy, class, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s class %d request %d: offered %+v, psd was offered %+v", policy, class, i, b[i], a[i])
				}
			}
		}
	}
}
