package main

import (
	"bytes"
	"strings"
	"testing"

	"dmt/internal/experiments"
)

// TestRun drives dmt-train in-process: a bad flag, an unknown profile and
// an unknown experiment each exit 2 with a message naming it, before any
// training, and -list exits 0 printing every quality experiment's name.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		inStderr string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{[]string{"-profile", "huge"}, `unknown profile "huge"`},
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
	exps := experiments.Select(experiments.Quality)
	if len(exps) == 0 {
		t.Fatal("the registry holds no quality experiment")
	}
	for _, e := range exps {
		if !strings.Contains(stdout.String(), e.Name) {
			t.Errorf("-list does not print %q:\n%s", e.Name, &stdout)
		}
	}
}
