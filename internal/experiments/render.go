package experiments

import (
	"fmt"
	"io"
	"strings"
)

// fprintf is fmt.Fprintf with the error discarded (reports are best-effort).
func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// renderTable writes an aligned text table.
func renderTable(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	renderRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	renderRow(headers)
	fprintf(w, "|-%s-|\n", strings.Join(sep, "-|-"))
	for _, row := range rows {
		renderRow(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// asciiPlot renders two aligned series (reference vs predicted) as a crude
// terminal chart, the stand-in for the Fig. 5 panels.
func asciiPlot(w io.Writer, title string, ref, pred []float64) {
	const width, height = 72, 16
	fprintf(w, "%s\n", title)
	if len(ref) == 0 {
		fprintf(w, "(empty series)\n")
		return
	}
	lo, hi := ref[0], ref[0]
	for _, v := range append(append([]float64{}, ref...), pred...) {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	place := func(series []float64, mark byte) {
		for i, v := range series {
			x := i * (width - 1) / max(1, len(series)-1)
			y := int(float64(height-1) * (v - lo) / (hi - lo))
			row := height - 1 - y
			if grid[row][x] == ' ' || grid[row][x] == mark {
				grid[row][x] = mark
			} else {
				grid[row][x] = '#' // overlap
			}
		}
	}
	place(ref, '.')
	place(pred, '+')
	for _, row := range grid {
		fprintf(w, "  %s\n", string(row))
	}
	fprintf(w, "  [.] t_ref (sorted)   [+] t_pred   [#] overlap   range %.3g..%.3g s\n", lo, hi)
}

// writeCSV dumps aligned columns as CSV.
func writeCSV(w io.Writer, headers []string, cols [][]float64) {
	fprintf(w, "%s\n", strings.Join(headers, ","))
	n := 0
	for _, c := range cols {
		if len(c) > n {
			n = len(c)
		}
	}
	for i := 0; i < n; i++ {
		cells := make([]string, len(cols))
		for j, c := range cols {
			if i < len(c) {
				cells[j] = fmt.Sprintf("%g", c[i])
			}
		}
		fprintf(w, "%s\n", strings.Join(cells, ","))
	}
}
