package experiments

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// column is one typed column of a table: the header cell, the fmt verb its
// values render with, and the accessor that reads the value off a row. The
// verb may carry literal text around the conversion ("| %9.2f", "%8.2fMB",
// "%7.1f%%"); the header cell is padded to the same rendered width.
type column[R any] struct {
	head string
	verb string
	val  func(R) any
}

// table is the one renderer every experiment prints through: title line(s),
// a header row derived from the columns, one line per row, then the footer
// lines. It is generic over the row struct, so a column that reads the wrong
// field of the wrong type does not compile.
type table[R any] struct {
	title string
	cols  []column[R]
	foot  []string
}

// verbShape splits a column verb into its literal prefix, the conversion's
// flags and width, and the literal suffix.
var verbShape = regexp.MustCompile(`^([^%]*)%([-+]*)(\d*)(?:\.\d+)?[a-z](.*)$`)

// headCell renders the header for a column: the verb's literal prefix, then
// the header text padded to the conversion's width plus the rendered width
// of the literal suffix, aligned the way the values are.
func (c column[R]) headCell() string {
	m := verbShape.FindStringSubmatch(c.verb)
	width, _ := strconv.Atoi(m[3])
	if width > 0 {
		width += utf8.RuneCountInString(strings.ReplaceAll(m[4], "%%", "%"))
	}
	if strings.Contains(m[2], "-") {
		width = -width
	}
	return m[1] + fmt.Sprintf("%*s", width, c.head)
}

func (t table[R]) render(rows []R) string {
	var b strings.Builder
	b.WriteString(t.title)
	b.WriteByte('\n')
	line := func(cell func(column[R]) string) {
		for i, c := range t.cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(cell(c))
		}
		b.WriteByte('\n')
	}
	if len(t.cols) > 0 {
		line(column[R].headCell)
		for _, r := range rows {
			line(func(c column[R]) string { return fmt.Sprintf(c.verb, c.val(r)) })
		}
	}
	for _, f := range t.foot {
		b.WriteString(f)
		b.WriteByte('\n')
	}
	return b.String()
}

// micros rounds a duration to the microsecond the latency columns print.
func micros(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
