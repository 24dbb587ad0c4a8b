// Package trace renders the modeled training iteration as a per-phase
// timeline — the operational view of Figures 4 and 7 laid out in time. It
// turns perfmodel's phase decomposition into a proportional ASCII Gantt
// chart, making visible exactly where the baseline's global AlltoAll wall
// sits and how SPTT/DMT replace it with NVLink-domain and small-world
// stages.
package trace

import (
	"fmt"
	"strings"

	"dmt/internal/perfmodel"
)

// Span is one scheduled phase on the timeline.
type Span struct {
	Phase perfmodel.Phase
	Start float64
	End   float64
}

// Timeline is a sequential schedule of an iteration's phases. Overlap in
// the real system is modeled by perfmodel's Breakdown; the timeline shows
// the serialized (worst-case) order with the overlap budget annotated.
type Timeline struct {
	Config perfmodel.Config
	Spans  []Span
	// Exposed is the post-overlap Breakdown for the same configuration.
	Exposed perfmodel.Breakdown
}

// Build lays the phases of one iteration end to end.
func Build(cfg perfmodel.Config) *Timeline {
	tl := &Timeline{Config: cfg, Exposed: perfmodel.Iterate(cfg)}
	at := 0.0
	for _, ph := range perfmodel.Phases(cfg) {
		tl.Spans = append(tl.Spans, Span{Phase: ph, Start: at, End: at + ph.Seconds})
		at += ph.Seconds
	}
	return tl
}

// Total returns the serialized duration.
func (tl *Timeline) Total() float64 {
	if len(tl.Spans) == 0 {
		return 0
	}
	return tl.Spans[len(tl.Spans)-1].End
}

// kindGlyph maps phase kinds to bar glyphs.
func kindGlyph(k perfmodel.PhaseKind) byte {
	switch k {
	case perfmodel.KindCompute:
		return '#'
	case perfmodel.KindEmbComm:
		return '='
	case perfmodel.KindShuffle:
		return '~'
	case perfmodel.KindDenseComm:
		return '+'
	default:
		return '?'
	}
}

// Compare renders baseline and DMT timelines for a cluster side by side on
// a shared scale, the textual Figure 13.
func Compare(base, dmt perfmodel.Config, width int) string {
	tb, td := Build(base), Build(dmt)
	scale := tb.Total()
	if td.Total() > scale {
		scale = td.Total()
	}
	var b strings.Builder
	for _, tl := range []*Timeline{tb, td} {
		// Re-render against the shared scale so bar lengths are comparable.
		fmt.Fprintf(&b, "%s\n", tl.renderScaled(width, scale))
	}
	fmt.Fprintf(&b, "speedup (exposed totals): %.2fx\n",
		tb.Exposed.Total()/td.Exposed.Total())
	return b.String()
}

func (tl *Timeline) renderScaled(width int, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s iteration, serialized %.2f ms (exposed %.2f ms)\n",
		tl.Config.System, tl.Total()*1e3, tl.Exposed.Total()*1e3)
	for _, sp := range tl.Spans {
		lo := int(sp.Start / scale * float64(width))
		hi := int(sp.End / scale * float64(width))
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
	return b.String()
}
