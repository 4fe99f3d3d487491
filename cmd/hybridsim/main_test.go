package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hybridsched"
)

// TestMain runs the command itself when HYBRIDSIM_TEST_ARGS is set, so a test
// can drive the real flag parsing in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("HYBRIDSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"hybridsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command returns hybridsim with args as a child process.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HYBRIDSIM_TEST_ARGS="+strings.Join(args, " "))
	return cmd
}

// hybridsim runs the command with args and returns its standard output.
func hybridsim(t *testing.T, args ...string) string {
	t.Helper()
	out, err := command(args...).Output()
	if err != nil {
		t.Fatalf("hybridsim %v: %v", args, err)
	}
	return string(out)
}

// breakdownLine runs hybridsim with args and returns the utilization
// breakdown line of its report.
func breakdownLine(t *testing.T, args ...string) string {
	t.Helper()
	out := hybridsim(t, args...)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "useful") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("hybridsim %v printed no breakdown:\n%s", args, out)
	return ""
}

// TestCkptZeroDisablesCheckpointing: -ckpt 0 turns checkpointing off exactly
// as -ckpt -1 does, rather than falling back to the Daly-optimal default.
func TestCkptZeroDisablesCheckpointing(t *testing.T) {
	base := []string{"-nodes", "512", "-weeks", "1"}
	def := breakdownLine(t, base...)
	zero := breakdownLine(t, append(base, "-ckpt", "0")...)
	neg := breakdownLine(t, append(base, "-ckpt", "-1")...)
	if !strings.Contains(zero, "ckpt 0.00%") {
		t.Errorf("-ckpt 0: %q, want ckpt 0.00%%", zero)
	}
	if zero != neg {
		t.Errorf("-ckpt 0: %q\n-ckpt -1: %q", zero, neg)
	}
	if strings.Contains(def, "ckpt 0.00%") {
		t.Errorf("default -ckpt: %q, want checkpointing on", def)
	}
}

// withoutLatency drops the wall-clock decision-latency lines of a text
// report.
func withoutLatency(report string) string {
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "decision latency") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestTraceRunsAsSourceCell: -trace PATH runs the source spec csv:PATH
// through the sweep runner, so its text and CSV reports equal the -source
// run's.
func TestTraceRunsAsSourceCell(t *testing.T) {
	recs, err := hybridsched.GenerateWorkload(hybridsched.WorkloadConfig{Seed: 5, Weeks: 1, Nodes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := hybridsched.WriteTraceCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{"text", "csv"} {
		args := []string{"-nodes", "512", "-mechs", "baseline,CUA&SPAA", "-q", "-out", out}
		trace := hybridsim(t, slices.Concat(args, []string{"-trace", path})...)
		src := hybridsim(t, slices.Concat(args, []string{"-source", "csv:" + path})...)
		if out == "text" {
			trace, src = withoutLatency(trace), withoutLatency(src)
		}
		if trace != src {
			t.Errorf("-out %s: -trace printed\n%s\n-source printed\n%s", out, trace, src)
		}
	}
}

// TestUnknownTraceFormatIsUsageError: -format names a trace reader, and an
// unknown one exits 2 before any work, as an unknown scheduler does.
func TestUnknownTraceFormatIsUsageError(t *testing.T) {
	err := command("-trace", "t.json", "-format", "json").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-format json: %v, want exit status 2", err)
	}
}

// TestCPUProfile: -cpuprofile writes a complete CPU profile (a non-empty
// gzip stream, as pprof writes) both when the run finishes and when a usage
// error ends it early.
func TestCPUProfile(t *testing.T) {
	dir := t.TempDir()
	ran := filepath.Join(dir, "ran.prof")
	hybridsim(t, "-nodes", "512", "-weeks", "1", "-mech", "baseline", "-cpuprofile", ran)
	checkProfile(t, ran)

	refused := filepath.Join(dir, "refused.prof")
	err := command("-mech", "nope", "-cpuprofile", refused).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-mech nope: %v, want exit status 2", err)
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
