package simsrv

import (
	"sort"
	"testing"

	"psd/internal/core"
	"psd/internal/sched"
)

// TestCommonRandomNumbersAcrossPolicies pins what the per-component
// streams guarantee now that a variate consumes a variable number of
// words (internal/rng's package doc): class i's inter-arrival times come
// from stream 2i+1 and its sizes from stream 2i+2 of the replication's
// source, nothing else draws from either, so the (arrival time, size)
// sequence each class is offered is a function of the seed alone — the
// same under every allocation policy and on either service model (the
// generators belong to the skeleton, not to the server box), which is
// what makes a policy comparison at equal seeds a paired one.
func TestCommonRandomNumbersAcrossPolicies(t *testing.T) {
	type offered struct{ arrival, size float64 }
	// disciplines maps the policies that run on the packetized model to
	// their scheduler (nil = the default SCFQ).
	disciplines := map[string]func(int) sched.Scheduler{
		"ppsd":   nil,
		"hesrpt": func(n int) sched.Scheduler { return sched.NewHeSRPT(n) },
	}
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
		var res *Result
		if mk, packetized := disciplines[policy]; packetized {
			res, err = runPacketized(PacketizedConfig{Config: cfg, NewScheduler: mk})
		} else {
			res, err = Run(cfg)
		}
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
	for _, policy := range []string{"equal", "downgrade", "ppsd", "hesrpt"} {
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
			if policy == "hesrpt" {
				// Size-aware service is not FCFS within a class: a large
				// job can still be waiting when the run ends, and only
				// completions are recorded. What did complete must be, in
				// order, a subsequence of what psd was offered.
				j := 0
				for i, req := range b {
					for j < len(a) && a[j] != req {
						j++
					}
					if j == len(a) {
						t.Fatalf("hesrpt class %d request %d: served %+v, which psd was never offered", class, i, req)
					}
				}
				if len(b) < len(a)*9/10 {
					t.Fatalf("hesrpt class %d: only %d of %d offered requests completed", class, len(b), len(a))
				}
				continue
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
