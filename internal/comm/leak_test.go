package comm

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if goroutines outlive its tests. Every
// goroutine a test starts, its rank goroutines under Run included, must be
// gone once the tests finish; a short grace period lets the ones already
// returning exit.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		for wait := 0; live() > before && wait < 200; wait++ {
			time.Sleep(10 * time.Millisecond)
		}
		if n := live(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutine(s) outlived the tests (%d before, %d after):\n%s\n",
				n-before, before, n, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
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
