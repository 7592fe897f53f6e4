// Package exp is the experiment harness: it rebuilds every table and figure
// of the Darwin paper's evaluation (§6, Appendix A.3) at a configurable
// scale, printing the same rows/series the paper reports. Each experiment is
// exposed as a function returning a Report; cmd/experiments prints them.
package exp

import (
	"fmt"
	"strings"
)

// Report is a printable experiment result: a titled table of rows.
type Report struct {
	// Title identifies the experiment (e.g. "Figure 4a").
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, already formatted.
	Rows [][]string
	// Notes are free-form lines appended after the table.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends a note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report with aligned columns.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString("== " + r.Title + " ==\n")
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// f2 formats a float with 2 decimals; f4 with 4.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
