package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries psdserver's command line to a re-executed test binary,
// which then runs main in place of the tests.
const argsEnv = "PSDSERVER_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"psdserver"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnschedulablePeriodRefused: a -window or -timeunit whose
// reallocation period is not a Duration of at least 1ns must exit 1 with
// a message before the server starts, not panic in its reallocation loop.
func TestUnschedulablePeriodRefused(t *testing.T) {
	for _, args := range []string{
		"-window 1e-9",
		"-window Inf",
		"-timeunit -1ms",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), argsEnv+"=-addr 127.0.0.1:0 "+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("psdserver %s: %v\n%s", args, err, out)
		}
		if exit.ExitCode() != 1 || !strings.Contains(string(out), "psdserver: starting server: httpsrv:") {
			t.Errorf("psdserver %s: exit %d, want 1 with the refusal\n%s", args, exit.ExitCode(), out)
		}
	}
}
