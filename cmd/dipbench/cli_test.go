package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the test binary stand in for dipbench: TestMain runs
// the real CLI on the process arguments when it is set.
const runMainEnv = "DIPBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// dipbench runs the CLI in a child process and returns its exit code and
// stderr.
func dipbench(t *testing.T, args ...string) (int, string) {
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
	t.Fatalf("running dipbench %v: %v", args, err)
	return 0, ""
}

// -csv names files under -out; without -out it would write nothing, so it
// is a hard error like every other flag conflict.
func TestCSVWithoutOutIsAnError(t *testing.T) {
	code, stderr := dipbench(t, "-exp", "fig2", "-scale", "test", "-csv", "-json", "none")
	if code != 2 || !strings.Contains(stderr, "-csv") || !strings.Contains(stderr, "-out") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming -csv and -out", code, stderr)
	}
}

func TestCSVWritesOneFilePerTable(t *testing.T) {
	out := t.TempDir()
	code, stderr := dipbench(t, "-exp", "fig2", "-scale", "test", "-csv", "-out", out, "-v=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	csvs, err := filepath.Glob(filepath.Join(out, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSV files in %s (err %v)", out, err)
	}
	for _, want := range []string{"fig2.txt", "BENCH_results.json"} {
		if _, err := os.Stat(filepath.Join(out, want)); err != nil {
			t.Fatal(err)
		}
	}
}

// A CSV that cannot be written fails the run instead of exiting 0 behind a
// truncated artifact: the table's CSV path is a symlink to /dev/full, so
// every write fails with ENOSPC.
func TestCSVWriteErrorFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	out := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(out, "fig2.csv")); err != nil {
		t.Fatal(err)
	}
	code, stderr := dipbench(t, "-exp", "fig2", "-scale", "test", "-csv", "-out", out, "-v=false", "-json", "none")
	if code != 1 || !strings.Contains(stderr, "fig2.csv") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming fig2.csv", code, stderr)
	}
}
