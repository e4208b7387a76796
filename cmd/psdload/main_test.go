package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
)

// argsEnv carries psdload's command line to a re-executed test binary,
// which then runs main in place of the tests.
const argsEnv = "PSDLOAD_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"psdload"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSpinningLoadRefused: an arrival rate or time unit that would make
// the generator spin must exit 1 with a message before any request is
// sent.
func TestSpinningLoadRefused(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer ts.Close()
	for _, args := range []string{
		"-lambdas Inf,0.1",
		"-lambdas NaN,0.1",
		"-lambdas 1e300,0.1 -timeunit 1ms",
		"-timeunit -1ms",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), argsEnv+"=-url "+ts.URL+"/ -duration 200ms -workers 2 "+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("psdload %s: %v\n%s", args, err, out)
		}
		if exit.ExitCode() != 1 || !strings.Contains(string(out), "psdload: ") {
			t.Errorf("psdload %s: exit %d, want 1 with the refusal\n%s", args, exit.ExitCode(), out)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("refused runs sent %d requests", n)
	}
}
