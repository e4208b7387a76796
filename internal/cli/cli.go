// Package cli is the command-line vocabulary the psd commands share: one
// float-list parser, one fatal exit, one "-"-aware output file, and the
// flag groups that two or more commands define, so a name, default or
// help text cannot drift between commands. A group registers its flags on
// a FlagSet and returns the resolver to call after parsing; a resolver
// exits through Fatalf on a value it cannot use, as flag.ExitOnError does
// on one it cannot parse.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"psd/internal/control"
	"psd/internal/core"
	"psd/internal/dist"
	"psd/internal/sweep"
)

// Floats parses a comma-separated list of numbers; an empty entry is an
// error.
func Floats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Fatalf prints the message, prefixed with the command's name, to
// standard error and exits with status 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", filepath.Base(os.Args[0]), fmt.Sprintf(format, args...))
	os.Exit(1)
}

// WriteFile hands write the file at path, created or truncated, or
// standard output when path is "-".
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Deltas registers -deltas, the per-class differentiation parameters.
func Deltas(fs *flag.FlagSet) func() []float64 {
	s := fs.String("deltas", "1,2", "comma-separated differentiation parameters, one per class")
	return func() []float64 {
		ds, err := Floats(*s)
		if err != nil {
			Fatalf("bad -deltas: %v", err)
		}
		return ds
	}
}

// Seed registers -seed, bound to p.
func Seed(fs *flag.FlagSet, p *uint64) {
	fs.Uint64Var(p, "seed", 1, "base random seed")
}

// SizeLaw registers the request-size group: -alpha, -lower and -upper
// of a Bounded Pareto.
func SizeLaw(fs *flag.FlagSet) func() *dist.BoundedPareto {
	alpha := fs.Float64("alpha", 1.5, "Bounded Pareto shape")
	lower := fs.Float64("lower", 0.1, "Bounded Pareto lower bound")
	upper := fs.Float64("upper", 100, "Bounded Pareto upper bound")
	return func() *dist.BoundedPareto {
		d, err := dist.NewBoundedPareto(*lower, *upper, *alpha)
		if err != nil {
			Fatalf("bad Bounded Pareto parameters: %v", err)
		}
		return d
	}
}

// Control registers the control group, bound to the fields of the Config
// a command hands over: -ewma-alpha to ewmaAlpha, and -estimator and
// -allocator, which the resolver sets into est and alloc. The resolver
// returns the -allocator value, a core registry name.
func Control(fs *flag.FlagSet, alloc *core.Allocator, est *control.EstimatorKind, ewmaAlpha *float64) func() string {
	policy := fs.String("allocator", "psd", "rate-allocation policy from the core registry: "+strings.Join(core.Names(), " | "))
	estimator := fs.String("estimator", "window", "load estimator: window (paper) | ewma")
	fs.Float64Var(ewmaAlpha, "ewma-alpha", 0.3, "EWMA smoothing factor in (0,1] (with -estimator ewma)")
	return func() string {
		var err error
		if *est, err = control.ParseEstimatorKind(*estimator); err != nil {
			Fatalf("bad -estimator: %v", err)
		}
		if *alloc, err = core.Parse(*policy); err != nil {
			Fatalf("bad -allocator: %v", err)
		}
		return *policy
	}
}

// Sweep registers the sweep engine pair: -engine and -workers.
func Sweep(fs *flag.FlagSet) func() sweep.Engine {
	engine := fs.String("engine", "des", "point evaluation: des (simulate) | auto (closed form where the steady state is analytic) | analytic (refuse to simulate)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	return func() sweep.Engine {
		kind, err := sweep.ParseEngineKind(*engine)
		if err != nil {
			Fatalf("bad -engine: %v", err)
		}
		return sweep.Engine{Workers: *workers, Kind: kind}
	}
}
