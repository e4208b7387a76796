package loadgen

import (
	"math"
	"sort"
	"testing"
	"time"

	"psd/internal/dist"
	"psd/internal/rng"
	"psd/internal/simsrv"
	"psd/internal/workload"
)

// TestArrivalsMatchSimulator draws one run's requests two ways and
// requires them to be bit-identical: from the arrival script Run sleeps
// on (walkArrivals, read without HTTP or a clock) and from the simulator
// recording every request (simsrv.Config.RecordRequests), sorted by
// (class, arrival). Per-class FCFS completes a class's requests in
// arrival order, so what the simulator records of a class — the
// requests that completed before the end of the run — is a prefix of
// what the script sends.
func TestArrivalsMatchSimulator(t *testing.T) {
	bp := dist.PaperDefault()
	scaled, err := dist.NewScaled(bp, 2) // not a dist.Filler: drawn once per request
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := scaled.(dist.Filler); ok {
		t.Fatal("the scaled law draws ahead; the case would not cover the one-draw path")
	}
	const total = 6000.0 // time units, one per millisecond
	for _, tc := range []struct {
		name     string
		deltas   []float64
		law      dist.Distribution
		schedule []workload.Phase
	}{
		{"2 classes", []float64{1, 2}, bp, nil},
		{"2 classes, load step", []float64{1, 2}, bp, workload.LoadStep(2500, 1.5)},
		{"3 classes, churn with classes at scale 0", []float64{1, 2, 4}, bp,
			workload.ClassMixChurn(3, 1000, 700, 6, 2.5, 0)},
		{"3 classes, flash crowd, scaled law", []float64{1, 2, 4}, scaled,
			workload.FlashCrowd(1500, 2000, 1.6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := simsrv.EqualLoadConfig(tc.deltas, 0.5, tc.law)
			// A warmup as short as a float allows measures, and so
			// records, every request from the first.
			cfg.Warmup, cfg.Horizon, cfg.Seed = math.SmallestNonzeroFloat64, total, 42
			cfg.LoadSchedule = tc.schedule
			cfg.RecordRequests, cfg.RecordFrom, cfg.RecordTo = true, 0, math.Inf(1)
			res, err := simsrv.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim := res.Records
			sort.SliceStable(sim, func(i, j int) bool {
				if sim[i].Class != sim[j].Class {
					return sim[i].Class < sim[j].Class
				}
				return sim[i].Arrival < sim[j].Arrival
			})

			lg := Config{
				Lambdas:  make([]float64, len(cfg.Classes)),
				TimeUnit: time.Millisecond,
				Duration: time.Duration(total) * time.Millisecond,
				Service:  tc.law,
				Schedule: tc.schedule,
				Seed:     cfg.Seed,
			}
			for i, cc := range cfg.Classes {
				lg.Lambdas[i] = cc.Lambda
			}
			root := rng.New(lg.Seed)
			k := 0 // the next simulator record
			for class := range lg.Lambdas {
				sent, matched := 0, 0
				walkArrivals(&lg, root, class, func(at, size float64, _ int) bool {
					sent++
					if k == len(sim) || sim[k].Class != class {
						return true // served after the end of the run
					}
					if rec := sim[k]; rec.Arrival != at || rec.Size != size {
						t.Fatalf("class %d request %d: script (arrival %v, size %v), simulator (arrival %v, size %v)",
							class, sent-1, at, size, rec.Arrival, rec.Size)
					}
					k++
					matched++
					return true
				})
				if k < len(sim) && sim[k].Class == class {
					t.Fatalf("class %d: the simulator served %d requests the script never sent", class, countClass(sim[k:], class))
				}
				// Only the backlog at the end goes unrecorded; a class that
				// surges into the end of the run may leave a long one.
				if sent == 0 || 2*matched < sent {
					t.Errorf("class %d: %d of %d sent requests recorded", class, matched, sent)
				}
				t.Logf("class %d: %d requests, %d recorded", class, sent, matched)
			}
		})
	}
}

func countClass(recs []simsrv.RequestRecord, class int) int {
	n := 0
	for _, r := range recs {
		if r.Class == class {
			n++
		}
	}
	return n
}
