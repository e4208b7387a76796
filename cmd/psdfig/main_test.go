package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries psdfig's command line to a re-executed test binary,
// which then runs main in place of the tests.
const argsEnv = "PSDFIG_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"psdfig"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPsdfig runs psdfig with args on Figure 2's closed form and returns
// its exit code and output.
func runPsdfig(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), argsEnv+"=-fig 2 -engine analytic -out "+t.TempDir()+" "+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("psdfig %s: %v", args, err)
	return 0, ""
}

// TestBadFidelityFlagsRefused: a negative or non-finite -runs, -horizon
// or -warmup must fail with exit 1, not silently run the fidelity
// defaults (0 keeps meaning "default").
func TestBadFidelityFlagsRefused(t *testing.T) {
	for _, args := range []string{
		"-runs -3",
		"-horizon -50",
		"-horizon Inf",
		"-warmup -1",
		"-warmup NaN",
		"-warmup Inf",
	} {
		if code, out := runPsdfig(t, args); code != 1 {
			t.Errorf("psdfig %s: exit %d, want 1\n%s", args, code, out)
		}
	}
	if code, out := runPsdfig(t, "-runs 2 -horizon 5000 -warmup 0"); code != 0 || !strings.Contains(out, "figure 2 → ") {
		t.Errorf("psdfig with valid flags: exit %d\n%s", code, out)
	}
}
