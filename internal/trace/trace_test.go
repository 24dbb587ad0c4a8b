package trace

import (
	"fmt"
	"strings"
	"testing"

	"dmt/internal/perfmodel"
	"dmt/internal/topology"
)

func configs() (perfmodel.Config, perfmodel.Config) {
	c := topology.NewCluster(topology.H100, 64)
	return perfmodel.DefaultConfig(perfmodel.DCNSpec(), c, perfmodel.Baseline),
		perfmodel.DefaultConfig(perfmodel.DCNSpec(), c, perfmodel.DMT)
}

func TestBuildTimelineIsContiguous(t *testing.T) {
	base, _ := configs()
	tl := Build(base)
	if len(tl.Spans) == 0 {
		t.Fatal("no spans")
	}
	at := 0.0
	for _, sp := range tl.Spans {
		if sp.Start != at {
			t.Fatalf("span %q starts at %v, want %v", sp.Phase.Name, sp.Start, at)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before it starts", sp.Phase.Name)
		}
		at = sp.End
	}
	if tl.Total() != at {
		t.Fatal("Total inconsistent with last span")
	}
}

func TestPhasesSumMatchesBreakdownInputs(t *testing.T) {
	// The serialized total must be at least the exposed total (overlap can
	// only shrink it) and within the overlap budget of it plus "others".
	base, dmt := configs()
	for _, cfg := range []perfmodel.Config{base, dmt} {
		tl := Build(cfg)
		if tl.Total() < tl.Exposed.Total()-tl.Exposed.Others-1e-9 {
			t.Fatalf("%v: serialized %v below exposed %v", cfg.System, tl.Total(), tl.Exposed.Total())
		}
	}
}

func TestDMTTimelineHasTowerPhases(t *testing.T) {
	_, dmt := configs()
	out := Build(dmt).Render(60)
	for _, want := range []string{"peer fwd", "intra-host", "shuffle", "tower modules"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DMT timeline missing %q:\n%s", want, out)
		}
	}
	base, _ := configs()
	bout := Build(base).Render(60)
	if !strings.Contains(bout, "global") || strings.Contains(bout, "peer") {
		t.Fatalf("baseline timeline wrong:\n%s", bout)
	}
}

func TestRenderProportions(t *testing.T) {
	base, _ := configs()
	out := Build(base).Render(60)
	lines := strings.Split(out, "\n")
	// The compute line must carry the longest bar (DCN at 64xH100 is
	// compute-dominated, Figure 1).
	longest, longestName := 0, ""
	for _, l := range lines {
		if !strings.HasPrefix(l, "|") {
			continue
		}
		n := strings.Count(l[:61], "#") + strings.Count(l[:61], "=") + strings.Count(l[:61], "+")
		if n > longest {
			longest = n
			longestName = l
		}
	}
	if !strings.Contains(longestName, "compute") {
		t.Fatalf("longest bar should be compute:\n%s", out)
	}
}

func TestCompareSharedScale(t *testing.T) {
	base, dmt := configs()
	out := Compare(base, dmt, 60)
	if !strings.Contains(out, "Baseline iteration") || !strings.Contains(out, "DMT iteration") {
		t.Fatalf("compare output wrong:\n%s", out)
	}
	if !strings.Contains(out, "speedup") {
		t.Fatal("compare must report the speedup")
	}
}

func TestRenderMinWidth(t *testing.T) {
	base, _ := configs()
	if out := Build(base).Render(1); !strings.Contains(out, "compute") {
		t.Fatal("tiny width must still render")
	}
}

// Render draws the timeline as an ASCII Gantt chart of the given width.
func (tl *Timeline) Render(width int) string {
	if width < 20 {
		width = 20
	}
	total := tl.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "%s iteration on %s, serialized %.2f ms (exposed total %.2f ms)\n",
		tl.Config.System, tl.Config.Cluster, total*1e3, tl.Exposed.Total()*1e3)
	for _, sp := range tl.Spans {
		lo := int(sp.Start / total * float64(width))
		hi := int(sp.End / total * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat(string(kindGlyph(sp.Phase.Kind)), hi-lo) +
			strings.Repeat(" ", width-hi)
		fmt.Fprintf(&b, "|%s| %7.2fms  %s\n", bar, sp.Phase.Seconds*1e3, sp.Phase.Name)
	}
	fmt.Fprintf(&b, "legend: # compute  = embedding comm  ~ local shuffle  + dense sync\n")
	return b.String()
}
