package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives dmt-serve in-process: a bad flag, routing policy, arrival
// process, -rates entry, tower count and sample count each exit 2 with a
// message naming it, before any server or simulation runs.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		inStderr string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-table"}, "flag provided but not defined: -table"},
		{[]string{"-policy", "random"}, `unknown routing policy "random"`},
		{[]string{"-cluster", "-policy", "random"}, `unknown routing policy "random"`},
		{[]string{"-arrival", "pareto"}, `unknown arrival distribution "pareto"`},
		{[]string{"-cluster", "-arrival", "pareto"}, `unknown arrival distribution "pareto"`},
		{[]string{"-cluster", "-rates", "100,x"}, `bad -rates entry "x"`},
		{[]string{"-towers", "30"}, "-towers must be in [1,"},
		{[]string{"-unique", "0"}, "-unique must be positive"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.inStderr) {
				t.Errorf("stderr %q does not say %q", &stderr, tc.inStderr)
			}
			if stdout.Len() != 0 {
				t.Errorf("a rejected run printed a report:\n%s", &stdout)
			}
		})
	}
}
