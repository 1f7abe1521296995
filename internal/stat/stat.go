// Package stat provides the small statistics and table-rendering toolkit
// used by the experiment harness: summaries of sample sets and fixed-width
// tables matching the layout of EXPERIMENTS.md.
package stat

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// Summary describes a sample set.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile returns the p-quantile of sorted data by nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Ints converts integer samples for Summarize.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Samples accumulates observations across trials. The parallel experiment
// runner collects one Samples (or result struct) per trial and folds them
// in trial order, so merged statistics are independent of worker count and
// completion order.
type Samples struct {
	xs []float64
}

// Add appends observations.
func (s *Samples) Add(xs ...float64) { s.xs = append(s.xs, xs...) }

// AddInt appends one integer observation.
func (s *Samples) AddInt(x int) { s.xs = append(s.xs, float64(x)) }

// Len returns the number of observations.
func (s *Samples) Len() int { return len(s.xs) }

// Summary summarizes the accumulated observations.
func (s *Samples) Summary() Summary { return Summarize(s.xs) }

// Table is a titled grid of cells with optional footnotes.
type Table struct {
	// ID ties the table to an experiment ("E3").
	ID string
	// Title describes the table.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows hold the data cells.
	Rows [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row; it panics if the cell count does not match the
// header, which would silently misalign the rendering.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stat: row has %d cells, table %q has %d columns", len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	if t.ID != "" {
		fmt.Fprintf(w, "[%s] %s\n", t.ID, t.Title)
	} else {
		fmt.Fprintln(w, t.Title)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	sep := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		sep[i] = strings.Repeat("-", len(c))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown writes the table as a GitHub-flavoured markdown table (used to
// regenerate EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) {
	if t.ID != "" {
		fmt.Fprintf(w, "**[%s] %s**\n\n", t.ID, t.Title)
	} else {
		fmt.Fprintf(w, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*note: %s*\n", n)
	}
	fmt.Fprintln(w)
}

// Format helpers for table cells.

// F formats a float compactly.
func F(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// I formats an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// B formats a yes/no cell.
func B(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// SizeLabel renders a byte count for table rows and benchmark
// sub-names: "0B", "256B", "4KiB", "2MiB". Only exact unit multiples
// collapse to a larger unit — 1536 stays "1536B" — so distinct sizes
// can never collide into one label (benchmark names pair base and head
// runs textually in the benchgate).
func SizeLabel(bytes int) string {
	switch {
	case bytes >= 1<<20 && bytes%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", bytes>>20)
	case bytes >= 1024 && bytes%1024 == 0:
		return fmt.Sprintf("%dKiB", bytes>>10)
	default:
		return fmt.Sprintf("%dB", bytes)
	}
}
