package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"
)

// Trace record/replay: Encode serializes a trace to a line-oriented text
// form, Decode rebuilds it. The format is deliberately plain — one class
// line per SLO class, one request line per record — so recorded traces can
// be diffed, truncated, or hand-crafted for tests. Decode accepts only what
// Encode writes, in Encode's exact bytes, and only values a generated trace
// can hold: for every b Decode accepts, Encode(Decode(b)) is byte-identical
// to b, which is what makes replayed simulations reproducible across
// processes.

const traceHeader = "# dmt workload trace v1"

// Encode renders the trace in the record/replay text format.
func (t *Trace) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, traceHeader)
	for _, c := range t.Classes {
		fmt.Fprintf(&b, "class %s %g %d %d\n", c.Name, c.Share, c.Items, c.SLO.Nanoseconds())
	}
	for _, r := range t.Requests {
		fmt.Fprintf(&b, "%d %d %d %d %d\n", r.Seq, r.At.Nanoseconds(), r.Sample, r.Class, r.Items)
	}
	return b.Bytes()
}

// Decode parses a trace previously produced by Encode. It rejects, naming
// the line, anything Encode would not have written byte for byte (extra
// fields, blank lines, non-canonical numbers, classes after requests) and
// any value Generate cannot produce: a class share that is negative or not
// finite, an Items count below 1, a negative SLO, arrival time or sample,
// and arrivals that go backwards.
func Decode(data []byte) (*Trace, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() || sc.Text() != traceHeader {
		return nil, fmt.Errorf("workload: missing trace header %q", traceHeader)
	}
	tr := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.HasPrefix(text, "class ") {
			var c Class
			var sloNS int64
			if _, err := fmt.Sscanf(text, "class %s %g %d %d", &c.Name, &c.Share, &c.Items, &sloNS); err != nil {
				return nil, fmt.Errorf("workload: trace line %d: bad class record: %v", line, err)
			}
			if c.Share < 0 || math.IsNaN(c.Share) || math.IsInf(c.Share, 0) || c.Items < 1 || sloNS < 0 {
				return nil, fmt.Errorf("workload: trace line %d: class %q needs a finite share >= 0, items >= 1 and an SLO >= 0", line, c.Name)
			}
			c.SLO = time.Duration(sloNS)
			tr.Classes = append(tr.Classes, c)
			continue
		}
		var r Request
		var atNS int64
		if _, err := fmt.Sscanf(text, "%d %d %d %d %d", &r.Seq, &atNS, &r.Sample, &r.Class, &r.Items); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad request record: %v", line, err)
		}
		r.At = time.Duration(atNS)
		if r.Class < 0 || r.Class >= len(tr.Classes) {
			return nil, fmt.Errorf("workload: trace line %d: class %d out of range [0,%d)", line, r.Class, len(tr.Classes))
		}
		if r.At < 0 || r.Sample < 0 || r.Items < 1 {
			return nil, fmt.Errorf("workload: trace line %d: request needs arrival >= 0, sample >= 0 and items >= 1", line)
		}
		if n := len(tr.Requests); n > 0 && r.At < tr.Requests[n-1].At {
			return nil, fmt.Errorf("workload: trace line %d: arrival %v before the previous request's %v", line, r.At, tr.Requests[n-1].At)
		}
		tr.Requests = append(tr.Requests, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %v", err)
	}
	if enc := tr.Encode(); !bytes.Equal(enc, data) {
		return nil, fmt.Errorf("workload: trace line %d: not as Encode writes it", firstDiffLine(enc, data))
	}
	return tr, nil
}

// firstDiffLine returns the 1-based line of the first byte where a and b
// differ.
func firstDiffLine(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return bytes.Count(b[:i], []byte("\n")) + 1
}
