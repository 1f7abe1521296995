package stat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-1.5811) > 0.001 {
		t.Fatalf("std = %v, want ~1.5811", s.Std)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 = %v, want 3", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	t.Parallel()
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.P99 != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestPercentileBounds(t *testing.T) {
	t.Parallel()
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := Summarize(raw)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntsConversion(t *testing.T) {
	t.Parallel()
	xs := Ints([]int{1, 2})
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("Ints = %v", xs)
	}
}

func TestTableRender(t *testing.T) {
	t.Parallel()
	tab := Table{ID: "E0", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"[E0] demo", "a", "bb", "1", "2", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	t.Parallel()
	tab := Table{ID: "E1", Title: "demo", Columns: []string{"x", "y"}}
	tab.AddRow("a", "b")
	var sb strings.Builder
	tab.Markdown(&sb)
	out := sb.String()
	if !strings.Contains(out, "| x | y |") || !strings.Contains(out, "| a | b |") {
		t.Fatalf("markdown rendering wrong:\n%s", out)
	}
}

func TestAddRowPanicsOnMismatch(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tab := Table{Columns: []string{"a"}}
	tab.AddRow("1", "2")
}

func TestFormatHelpers(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		F(3):      "3",
		F(3.25):   "3.2",
		F(0.1234): "0.123",
		F(1234.5): "1234",
		I(-2):     "-2",
		B(true):   "yes",
		B(false):  "no",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("format: got %q, want %q", got, want)
		}
	}
}

func TestSizeLabel(t *testing.T) {
	t.Parallel()
	cases := map[int]string{
		0:       "0B",
		256:     "256B",
		1024:    "1KiB",
		1536:    "1536B", // not an exact KiB multiple: must not collide with 1KiB
		4096:    "4KiB",
		1 << 20: "1MiB",
		3 << 20: "3MiB",
	}
	for in, want := range cases {
		if got := SizeLabel(in); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}
