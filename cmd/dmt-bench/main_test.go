package main

import (
	"bytes"
	"strings"
	"testing"

	"dmt/internal/experiments"
)

// TestRun drives dmt-bench in-process: a bad flag, an unknown experiment, an
// unknown hardware generation and an unknown wire scheme each exit 2 with a
// message naming it, before any experiment runs, and -list exits 0 printing
// every Model and Measured experiment's name.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		inStderr string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{[]string{"-gen", "b200"}, `unknown generation "B200"`},
		{[]string{"-compress", "int3"}, `unknown scheme "int3"`},
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

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, want 0\nstderr:\n%s", code, &stderr)
	}
	exps := experiments.Select(experiments.Model, experiments.Measured)
	if len(exps) == 0 {
		t.Fatal("the registry holds no Model or Measured experiment")
	}
	for _, e := range exps {
		if !strings.Contains(stdout.String(), e.Name) {
			t.Errorf("-list does not print %q:\n%s", e.Name, &stdout)
		}
	}
}
