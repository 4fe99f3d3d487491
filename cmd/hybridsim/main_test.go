package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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

// breakdownLine runs hybridsim with args and returns the utilization
// breakdown line of its report.
func breakdownLine(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "HYBRIDSIM_TEST_ARGS="+strings.Join(args, " "))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hybridsim %v: %v", args, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
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
