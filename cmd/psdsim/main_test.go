package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"psd/internal/dist"
	"psd/internal/rng"
	"psd/internal/simsrv"
	"psd/internal/sweep"
	"psd/internal/workload"
)

// argsEnv carries psdsim's command line to a re-executed test binary,
// which then runs main in place of the tests.
const argsEnv = "PSDSIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"psdsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestClosedFormEngines runs psdsim end to end under both engines that
// answer a stationary point in closed form: the command must exit
// cleanly, report zero DES events, and print no per-window ratio line,
// since no window was simulated.
func TestClosedFormEngines(t *testing.T) {
	for _, engine := range []string{"analytic", "auto"} {
		t.Run(engine, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), argsEnv+"=-engine "+engine+" -deltas 1,2,4 -load 0.7")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("psdsim -engine %s: %v\n%s", engine, err, out)
			}
			if !strings.Contains(string(out), "(0 DES events)") {
				t.Errorf("psdsim -engine %s did not report a closed-form evaluation:\n%s", engine, out)
			}
			if strings.Contains(string(out), "per-window ratio") {
				t.Errorf("psdsim -engine %s printed a per-window line:\n%s", engine, out)
			}
		})
	}
}

// TestTraceMatchesRunTrace replays a generated session trace the way
// psdsim -trace does — the default flags' Config, one sweep.Engine
// replication — and requires the per-class mean slowdowns to equal, bit
// for bit, those of simsrv.RunTrace on the bare Config the retired
// psdtrace replay built: class λ from workload.ClassRates, the horizon
// running to the last arrival.
func TestTraceMatchesRunTrace(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultModel(), 0.3, []float64{0.5, 0.5}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := gen.Generate(8000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, reqs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	deltas := []float64{1, 2}
	const warmup = 1000
	cfg := simsrv.EqualLoadConfig(deltas, 0.5, dist.MustBoundedPareto(0.1, 100, 1.5))
	cfg.Warmup, cfg.Horizon, cfg.Window, cfg.HistoryWindows, cfg.Seed = warmup, 60000, 1000, 5, 1
	trace, err := loadTrace(&cfg, path, false)
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := (&sweep.Engine{}).Run([]sweep.Point{{Cfg: cfg, Runs: 1, Policy: "psd", Trace: trace}})
	if err != nil {
		t.Fatal(err)
	}

	end := reqs[len(reqs)-1].Time
	rates, err := workload.ClassRates(reqs, len(deltas), end)
	if err != nil {
		t.Fatal(err)
	}
	bare := simsrv.Config{Warmup: warmup, Horizon: end - warmup, Seed: 1}
	for i, d := range deltas {
		bare.Classes = append(bare.Classes, simsrv.ClassConfig{Delta: d, Lambda: rates[i]})
	}
	res, err := simsrv.RunTrace(bare, trace)
	if err != nil {
		t.Fatal(err)
	}
	for i := range deltas {
		got, want := aggs[0].MeanSlowdowns[i], res.Classes[i].MeanSlowdown
		if math.Float64bits(got) != math.Float64bits(want) || res.Classes[i].Count == 0 {
			t.Errorf("class %d: psdsim -trace mean slowdown %v, RunTrace %v (count %d)", i, got, want, res.Classes[i].Count)
		}
		// The Eq. 18 prediction reads the class λ, so it pins the
		// trace's empirical rates.
		if got, want := aggs[0].ExpectedSlowdowns[i], res.ExpectedSlowdowns[i]; got != want {
			t.Errorf("class %d: expected slowdown %v, RunTrace %v", i, got, want)
		}
	}
	if cfg.Horizon != end-warmup {
		t.Errorf("horizon %v, want the last arrival %v minus warmup", cfg.Horizon, end)
	}
}
