package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives dmt-partition in-process: every malformed flag exits 2
// with a message naming it, before any partitioning, and a good run exits
// 0 with one line per tower.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		inStderr string
	}{
		{[]string{"-features", "-3"}, "-features must be at least 1, got -3"},
		{[]string{"-features", "0"}, "-features must be at least 1, got 0"},
		{[]string{"-towers", "0"}, "-towers must be in [1,24]"},
		{[]string{"-towers", "-1"}, "-towers must be in [1,24]"},
		{[]string{"-towers", "30"}, "-towers must be in [1,24]"},
		{[]string{"-towers", "5", "-features", "4"}, "-towers must be in [1,4]"},
		{[]string{"-strategy", "mixed"}, `unknown strategy "mixed"`},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
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
	if code := run([]string{"-towers", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-towers 4: exit %d, want 0\nstderr:\n%s", code, &stderr)
	}
	towers := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "tower ") {
			towers++
		}
	}
	if towers != 4 {
		t.Fatalf("-towers 4 printed %d tower lines, want 4:\n%s", towers, &stdout)
	}
}

// TestGolden pins the Tower Partitioner's exact output: the towers, the
// affinities and the MDS stress trace, at the default flags, at a diverse
// four-tower split of 26 features whose towers cannot be equal, and at a
// diverse eight-tower split that only the K = 1 size cap keeps equal. A
// drift in TP's constants (the MDS plane, its steps and learning rate, the
// size cap) or in the MDS/k-means numerics fails here. The
// golden files are the command's own stdout: regenerate one with
// `go run ./cmd/dmt-partition <args> > cmd/dmt-partition/testdata/<name>.golden`,
// and only when the change is meant to move TP.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"towers4-diverse-features26", []string{"-towers", "4", "-strategy", "diverse", "-features", "26"}},
		{"towers8-diverse", []string{"-towers", "8", "-strategy", "diverse"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, want 0\nstderr:\n%s", code, &stderr)
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("dmt-partition %s drifted from testdata/%s.golden\ngot:\n%s\nwant:\n%s",
					strings.Join(tc.args, " "), tc.name, got, want)
			}
		})
	}
}
