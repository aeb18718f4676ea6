package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary stand in for diptrain: TestMain runs
// the real CLI on the process arguments when it is set.
const runMainEnv = "DIPTRAIN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// diptrain runs the CLI in a child process and returns its exit code and
// stderr.
func diptrain(t *testing.T, args ...string) (int, string) {
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
	t.Fatalf("running diptrain %v: %v", args, err)
	return 0, ""
}

// An unknown -scale or a misspelt -models entry is a named usage error
// raised before any model trains or any checkpoint is written.
func TestUnknownScaleAndModelAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "tset"}, `diptrain: unknown scale "tset"`},
		{[]string{"-scale", "test", "-models", "phi3med-sim,nosuch"}, `diptrain: unknown model "nosuch"`},
	} {
		ckpt := t.TempDir()
		code, stderr := diptrain(t, append(tc.args, "-ckpt", ckpt)...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("diptrain %v: exit %d, stderr %q; want exit 2 with %q", tc.args, code, stderr, tc.want)
		}
		if entries, _ := os.ReadDir(ckpt); len(entries) != 0 {
			t.Errorf("diptrain %v wrote %d checkpoint entries before failing", tc.args, len(entries))
		}
	}
}
