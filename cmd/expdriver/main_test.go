package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when EXPDRIVER_TEST_ARGS is set, so a test
// can drive the real flag parsing in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPDRIVER_TEST_ARGS"); ok {
		os.Args = append([]string{"expdriver"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns expdriver with args as a child process.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EXPDRIVER_TEST_ARGS="+strings.Join(args, " "))
	return cmd
}

// TestCPUProfile: -cpuprofile writes a complete CPU profile (a non-empty
// gzip stream, as pprof writes) both when the run finishes and when a usage
// error ends it early.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	ran := filepath.Join(dir, "ran.prof")
	out, err := command("-exp", "tableii", "-seeds", "1", "-weeks", "1", "-nodes", "512", "-q", "-cpuprofile", ran).Output()
	if err != nil {
		t.Fatalf("tableii: %v", err)
	}
	if !strings.Contains(string(out), "Table II") {
		t.Fatalf("tableii printed no table:\n%s", out)
	}
	checkProfile(t, ran)

	refused := filepath.Join(dir, "refused.prof")
	err = command("-policy", "nope", "-cpuprofile", refused).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-policy nope: %v, want exit status 2", err)
	}
	checkProfile(t, refused)
}

// checkProfile fails the test unless path holds a non-empty gzip stream.
func checkProfile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil || len(data) == 0 {
		t.Fatalf("%s: %d profile bytes, %v", path, len(data), err)
	}
}
