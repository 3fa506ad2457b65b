// Package experiments contains one harness per table/figure of the
// paper's evaluation (§VI) plus the measured counterparts of its §VI-C
// security analysis. Each harness returns a typed result with Render
// (aligned text table, the same rows/series the paper reports) and CSV
// output. The cmd/biot-bench binary and the repository's testing.B
// benches both drive these harnesses; EXPERIMENTS.md records
// paper-vs-measured numbers. The package holds the paper's figures only:
// the engineering layers are measured end to end by the bench/ module.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// table renders aligned columns with a header row.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
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
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func (t *table) csv(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, cell := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, cell); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func fsec(d time.Duration) string {
	return fmt.Sprintf("%.4f", d.Seconds())
}

func ffloat(v float64) string {
	return fmt.Sprintf("%.3f", v)
}
