package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary stand in for dipsim: TestMain runs the
// real CLI on the process arguments when it is set.
const runMainEnv = "DIPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// dipsim runs the CLI in a child process and returns its exit code and
// stderr.
func dipsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Dir = t.TempDir()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("running dipsim %v: %v", args, err)
	return 0, ""
}

// An unknown -scale or -model is a named usage error, not a paper-scale
// run or a panic.
func TestUnknownScaleAndModelAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "tset"}, `dipsim: unknown scale "tset"`},
		{[]string{"-scale", "test", "-model", "nosuch"}, `dipsim: unknown model "nosuch"`},
	} {
		code, stderr := dipsim(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "panic") {
			t.Errorf("dipsim %v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, tc.want)
		}
	}
}
