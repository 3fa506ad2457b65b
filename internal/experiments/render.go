// Package experiments contains one harness per table/figure of the
// paper's evaluation (§VI) plus the measured counterparts of its §VI-C
// security analysis. Each harness returns a typed result whose Table
// method builds the figure once — title, header, rows (the same
// rows/series the paper reports) and notes — and that one Table prints
// as aligned text or as CSV. The cmd/biot-bench binary and the
// repository's testing.B benches both drive these harnesses;
// EXPERIMENTS.md records paper-vs-measured numbers. The deployments the
// harnesses measure are built through the public biot facade, the same
// path the examples take. The package holds the paper's figures only:
// the engineering layers are measured end to end by the bench/ module.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is one figure's result: a title line, a header and rows of
// cells, and notes that follow the rows (Fig 8's recovery gaps). Render
// prints all of it as aligned text; CSV writes the header and the rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

func (t *Table) add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the title, the header and rows as aligned columns, and
// the notes.
func (t *Table) Render(w io.Writer) error {
	// Widths count runes, not bytes: λ, → and × are one column each.
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	lines := []string{t.Title, line(t.Header), line(sep)}
	for _, row := range t.Rows {
		lines = append(lines, line(row))
	}
	_, err := io.WriteString(w, strings.Join(append(lines, t.Notes...), "\n")+"\n")
	return err
}

// CSV writes the header and the rows as CSV records.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

func fsec(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

func ffloat(v float64) string {
	return fmt.Sprintf("%.3f", v)
}
