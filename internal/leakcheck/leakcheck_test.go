package leakcheck

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunFailsOnALeak: passing tests that leave a goroutine blocked fail
// with its stack; the same tests whose goroutine exits within the grace
// period pass, and failing tests keep their own code.
func TestRunFailsOnALeak(t *testing.T) {
	stop := make(chan struct{})
	var stderr bytes.Buffer
	leaky := func() int {
		go func() { <-stop }()
		return 0
	}
	if code := run(leaky, 20*time.Millisecond, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "1 goroutine(s) outlived the tests") ||
		!strings.Contains(stderr.String(), "TestRunFailsOnALeak") {
		t.Fatalf("a leaked goroutine: exit %d, stderr:\n%s", code, &stderr)
	}
	close(stop)

	stderr.Reset()
	exiting := func() int {
		go func() { time.Sleep(5 * time.Millisecond) }()
		return 0
	}
	if code := run(exiting, time.Second, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("a goroutine that exits in the grace period: exit %d, stderr:\n%s", code, &stderr)
	}
	if code := run(func() int { return 3 }, time.Second, &stderr); code != 3 {
		t.Fatalf("failing tests: exit %d, want their own 3", code)
	}
}
