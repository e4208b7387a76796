package cli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"psd/internal/control"
	"psd/internal/sweep"
)

// TestGroupFlags pins each group's flag names and defaults: the values the
// commands defined one by one before the groups existed.
func TestGroupFlags(t *testing.T) {
	cases := []struct {
		group    string
		register func(*flag.FlagSet)
		defaults map[string]string
	}{
		{"deltas", func(fs *flag.FlagSet) { Deltas(fs) }, map[string]string{"deltas": "1,2"}},
		{"seed", func(fs *flag.FlagSet) { Seed(fs, new(uint64)) }, map[string]string{"seed": "1"}},
		{"size law", func(fs *flag.FlagSet) { SizeLaw(fs) }, map[string]string{"alpha": "1.5", "lower": "0.1", "upper": "100"}},
		{"control", func(fs *flag.FlagSet) { Control(fs, new(control.Spec)) }, map[string]string{"allocator": "psd", "estimator": "window", "ewma-alpha": "0.3"}},
		{"sweep", func(fs *flag.FlagSet) { Sweep(fs) }, map[string]string{"engine": "des", "workers": "0"}},
		{"load step", func(fs *flag.FlagSet) { LoadStep(fs) }, map[string]string{"load-step": "0"}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet(c.group, flag.ContinueOnError)
		c.register(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, c.defaults) {
			t.Errorf("%s group defines %v, want %v", c.group, got, c.defaults)
		}
	}
}

// TestResolve resolves every group from parsed flags and defaults.
func TestResolve(t *testing.T) {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	var seed uint64
	Seed(fs, &seed)
	var spec control.Spec
	deltas, size, ctl, eng := Deltas(fs), SizeLaw(fs), Control(fs, &spec), Sweep(fs)
	if err := fs.Parse([]string{"-deltas", "1, 4", "-seed", "7", "-engine", "auto", "-estimator", "ewma"}); err != nil {
		t.Fatal(err)
	}
	if got := deltas(); !reflect.DeepEqual(got, []float64{1, 4}) {
		t.Errorf("deltas %v, want [1 4]", got)
	}
	if seed != 7 {
		t.Errorf("seed %d, want 7", seed)
	}
	if d := size(); d.K != 0.1 || d.P != 100 || d.Alpha != 1.5 {
		t.Errorf("size law %v, want BoundedPareto(0.1, 100, 1.5)", d)
	}
	if policy := ctl(); policy != "psd" || spec.Allocator.Name() != "psd" || spec.Estimator != control.EWMA || spec.EWMAAlpha != 0.3 {
		t.Errorf("control %s/%v/%v/%v, want psd/psd/ewma/0.3", policy, spec.Allocator, spec.Estimator, spec.EWMAAlpha)
	}
	if e := eng(); e != (sweep.Engine{Kind: sweep.Auto}) {
		t.Errorf("engine %+v, want auto with default workers", e)
	}
}

func TestFloatsRejectsEmptyEntries(t *testing.T) {
	for _, s := range []string{"", " ", "1,", ",2", "1,,2", "1, ,2"} {
		if v, err := Floats(s); err == nil {
			t.Errorf("Floats(%q) = %v, want an error", s, v)
		}
	}
	if v, err := Floats(" 1,2.5 ,1e3"); err != nil || !reflect.DeepEqual(v, []float64{1, 2.5, 1000}) {
		t.Errorf("Floats = %v, %v; want [1 2.5 1000]", v, err)
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello" {
		t.Fatalf("read back %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
}
