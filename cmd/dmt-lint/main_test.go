package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives dmt-lint in-process on small modules: findings exit 1,
// a clean package 0, and a package that does not load or type-check, or
// a pattern that matches nothing, exits 2 with an error naming it. A run
// over one package still sees the users of its functions in the rest of
// the module, and a method only its own package's tests call is a finding.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		files    map[string]string
		args     []string
		code     int
		stdout   string // every line of it, in order
		inStderr []string
	}{{
		name:   "finding",
		files:  map[string]string{"internal/netsim/n.go": "package netsim\n\nimport \"time\"\n\nfunc f() time.Time { return time.Now() }\n"},
		args:   []string{"./..."},
		code:   1,
		stdout: "internal/netsim/n.go:5:29: determinism: time.Now reads the wall clock in a virtual-clock package: use the group's Clock\n",
	}, {
		name: "subset run, used by a test outside it",
		files: map[string]string{
			"internal/tensor/t.go":      "package tensor\n\nfunc Full() int { return 1 }\n",
			"internal/models/m.go":      "package models\n",
			"internal/models/m_test.go": "package models\n\nimport \"example/internal/tensor\"\n\nvar _ = tensor.Full()\n",
		},
		args: []string{"./internal/tensor"},
		code: 0,
	}, {
		name: "subset run, used by its own tests only",
		files: map[string]string{
			"internal/tensor/t.go":      "package tensor\n\nfunc Full() int { return 1 }\n",
			"internal/tensor/t_test.go": "package tensor\n\nvar _ = Full()\n",
		},
		args:   []string{"./internal/tensor"},
		code:   1,
		stdout: "internal/tensor/t.go:3:6: unreached: exported function Full is reached from nothing but its own package's tests: delete it or move it into a _test.go file\n",
	}, {
		name: "method used by its own tests only",
		files: map[string]string{
			"internal/tensor/t.go":      "package tensor\n\ntype T struct{}\n\nfunc (T) Full() int { return 1 }\n",
			"internal/tensor/t_test.go": "package tensor\n\nvar _ = T{}.Full()\n",
		},
		args:   []string{"./..."},
		code:   1,
		stdout: "internal/tensor/t.go:5:10: unreached: exported method T.Full is reached from nothing but its own package's tests: delete it or move it into a _test.go file\n",
	}, {
		name:  "clean",
		files: map[string]string{"ok/ok.go": "package ok\n\nfunc F() int { return 1 }\n"},
		code:  0,
	}, {
		name:     "type error",
		files:    map[string]string{"bad/bad.go": "package bad\n\nvar X int = \"s\"\n"},
		args:     []string{"./bad"},
		code:     2,
		inStderr: []string{"example/bad", "bad.go:3:13"},
	}, {
		name:     "unresolved import",
		files:    map[string]string{"a/a.go": "package a\n\nimport \"example/missing\"\n\nvar X = missing.Y\n"},
		args:     []string{"./a"},
		code:     2,
		inStderr: []string{"example/missing", "a/a.go:3:8"},
	}, {
		name:     "pattern matches nothing",
		files:    map[string]string{"empty/README": "no Go files here\n"},
		args:     []string{"./empty/..."},
		code:     2,
		inStderr: []string{"no packages match ./empty/..."},
	}, {
		name:     "no such directory",
		args:     []string{"./nothing/..."},
		code:     2,
		inStderr: []string{"./nothing/..."},
	}, {
		name:     "flags are not taken",
		args:     []string{"-json", "./..."},
		code:     2,
		inStderr: []string{"usage: dmt-lint [packages]"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module example\n\ngo 1.24\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			for name, src := range tc.files {
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(dir, tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", &stdout, tc.stdout)
			}
			for _, s := range tc.inStderr {
				if !strings.Contains(stderr.String(), s) {
					t.Errorf("stderr %q does not name %q", &stderr, s)
				}
			}
		})
	}
}

// TestRepoIsClean lints this repository: no comment can silence a finding,
// so any finding anywhere in the tree fails go test.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run("../..", []string{"./..."}, &stdout, &stderr); code != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("dmt-lint ./... exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}
