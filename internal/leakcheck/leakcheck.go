// Package leakcheck fails a test binary whose goroutines outlive its tests.
// A package opts in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Every goroutine a test starts — rank goroutines under comm.Run, a
// server's workers, a load generator's clients, a timer's callback — must
// be gone once the tests finish; a short grace period lets the ones
// already returning exit.
package leakcheck

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace bounds how long the check waits for goroutines already on their
// way out.
const grace = 2 * time.Second

// Main runs m's tests and exits with their code, or with 1 when they pass
// but leave goroutines behind, printing every goroutine's stack.
func Main(m *testing.M) { os.Exit(run(m.Run, grace, os.Stderr)) }

// run runs the tests and returns their exit code, turned to 1 when they
// pass with more goroutines live than before them after grace.
func run(tests func() int, grace time.Duration, stderr io.Writer) int {
	before := runtime.NumGoroutine()
	code := tests()
	if code != 0 {
		return code
	}
	for deadline := time.Now().Add(grace); live() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := live(); n > before {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(stderr, "FAIL: %d goroutine(s) outlived the tests (%d before, %d after):\n%s\n",
			n-before, before, n, buf[:runtime.Stack(buf, true)])
		return 1
	}
	return 0
}

// live counts the goroutines but os/signal's loop: a -fuzz run's
// coordinator starts it with signal.Notify, for the life of the process.
func live() int {
	buf := make([]byte, 1<<20)
	n := runtime.NumGoroutine()
	if strings.Contains(string(buf[:runtime.Stack(buf, true)]), "\nos/signal.loop()") {
		n--
	}
	return n
}
