package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/snapstab/snapstab/internal/stat"
)

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12 (E1..E12)", len(all))
	}
	for i, e := range all {
		want := "E" + stat.I(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %s, want %s (ordering broken)", i, e.ID, want)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
}

func TestByID(t *testing.T) {
	t.Parallel()
	if _, ok := ByID("E3"); !ok {
		t.Fatal("E3 not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
}

// quickCfg runs every experiment at smoke-test scale.
func quickCfg() Config { return Config{Quick: true, Trials: 6, Seed: 7} }

// findCell returns true if any cell of any row equals want.
func hasCell(tables []stat.Table, want string) bool {
	for _, tab := range tables {
		for _, row := range tab.Rows {
			for _, cell := range row {
				if cell == want {
					return true
				}
			}
		}
	}
	return false
}

// column returns the index of the named column, or -1.
func column(tab stat.Table, name string) int {
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func TestE1ReproducesFigure1(t *testing.T) {
	t.Parallel()
	tables := runE1(quickCfg())
	if len(tables) != 2 {
		t.Fatalf("E1 produced %d tables, want 2", len(tables))
	}
	// Table 2: fooled for FlagTop <= 3, safe for >= 4.
	fooledCol := column(tables[1], "decision from garbage")
	for _, row := range tables[1].Rows {
		top := row[0]
		fooled := row[fooledCol]
		wantFooled := top == "1" || top == "2" || top == "3"
		if (fooled == "yes") != wantFooled {
			t.Errorf("FlagTop %s: fooled=%s, want %v", top, fooled, wantFooled)
		}
	}
}

func TestE2Shape(t *testing.T) {
	t.Parallel()
	tables := runE2(quickCfg())
	// Table 1 row 1 (unbounded): violation yes; row 2 (capacity 1): no.
	t1 := tables[0]
	vCol := column(t1, "safety violated")
	if t1.Rows[0][vCol] != "yes" {
		t.Errorf("unbounded regime not violated: %v", t1.Rows[0])
	}
	if t1.Rows[1][vCol] != "no" {
		t.Errorf("known-capacity regime violated: %v", t1.Rows[1])
	}
	// Table 2: a FOOLED cell exists (large g) and a safe cell exists.
	if !hasCell(tables[1:], "FOOLED") {
		t.Error("capacity sweep found no FOOLED cell")
	}
}

func TestE3NoViolations(t *testing.T) {
	t.Parallel()
	tables := runE3(quickCfg())
	tab := tables[0]
	vCol, toCol := column(tab, "violations"), column(tab, "timeouts")
	for _, row := range tab.Rows {
		if row[vCol] != "0" || row[toCol] != "0" {
			t.Errorf("row %v has violations/timeouts", row)
		}
	}
}

func TestE4NoResidual(t *testing.T) {
	t.Parallel()
	tables := runE4(quickCfg())
	col := column(tables[0], "residual after completion")
	for _, row := range tables[0].Rows {
		if row[col] != "0" {
			t.Errorf("row %v has residual garbage", row)
		}
	}
}

func TestE5AllCorrect(t *testing.T) {
	t.Parallel()
	tables := runE5(quickCfg())
	tab := tables[0]
	for _, name := range []string{"timeouts", "wrong minID", "wrong ID-Tab entries"} {
		col := column(tab, name)
		for _, row := range tab.Rows {
			if row[col] != "0" {
				t.Errorf("%s nonzero in row %v", name, row)
			}
		}
	}
}

func TestE6NoViolations(t *testing.T) {
	t.Parallel()
	tables := runE6(quickCfg())
	tab := tables[0]
	for _, name := range []string{"unserved", "ME violations"} {
		col := column(tab, name)
		for _, row := range tab.Rows {
			if row[col] != "0" {
				t.Errorf("%s nonzero in row %v", name, row)
			}
		}
	}
}

func TestE7LinearInN(t *testing.T) {
	t.Parallel()
	tables := runE7(quickCfg())
	tab := tables[0]
	// Lossless rows: messages must grow with n but stay within a constant
	// factor of the naive baseline.
	mCol := column(tab, "messages (mean)")
	oCol := column(tab, "overhead factor")
	var prev float64
	for _, row := range tab.Rows {
		if row[1] != "0" {
			continue
		}
		var m, o float64
		sscan(t, row[mCol], &m)
		sscan(t, row[oCol], &o)
		if m < prev {
			t.Errorf("messages decreased with n: %v", tab.Rows)
		}
		prev = m
		if o < 1 || o > 40 {
			t.Errorf("overhead factor %v out of plausible range", o)
		}
	}
}

func sscan(t *testing.T, s string, out *float64) {
	t.Helper()
	if _, err := fmtSscan(s, out); err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
}

func TestE8Shape(t *testing.T) {
	t.Parallel()
	tables := runE8(quickCfg())
	tab := tables[0]
	seqCol := column(tab, "self-stab seq-PIF")
	snapCol := column(tab, "snap-stab PIF")
	for i, row := range tab.Rows {
		g := []int{1, 2, 4, 8}[i]
		wantSeq := stat.I(g) + " of first " + stat.I(g+2) + " fooled"
		if row[seqCol] != wantSeq {
			t.Errorf("G=%d: seq cell %q, want %q", g, row[seqCol], wantSeq)
		}
		wantSnap := "0 of first " + stat.I(g+2) + " fooled"
		if row[snapCol] != wantSnap {
			t.Errorf("G=%d: snap cell %q, want %q", g, row[snapCol], wantSnap)
		}
	}
}

// TestE9Thresholds checks each row of E9 (what snapbench -e E9 prints):
// the paper's FlagTop 4 is exhaustively safe, every smaller domain is
// unsafe with a counter-example, and no domain has a termination trap.
func TestE9Thresholds(t *testing.T) {
	t.Parallel()
	tables := runE9(quickCfg())
	tab := tables[0]
	sCol, trapCol, exCol := column(tab, "safety"), column(tab, "termination traps"), column(tab, "counter-example")
	var tops []string
	for _, row := range tab.Rows {
		row := row
		top := row[0]
		tops = append(tops, top)
		t.Run("FlagTop="+top, func(t *testing.T) {
			wantSafe := top == "4" || top == "5"
			if wantSafe && row[sCol] != "SAFE (exhaustive)" {
				t.Errorf("safety %q, want SAFE (exhaustive)", row[sCol])
			}
			if !wantSafe && (row[sCol] != "UNSAFE" || !strings.HasSuffix(row[exCol], "-step counter-example")) {
				t.Errorf("safety %q, counter-example %q: want UNSAFE with a counter-example trace", row[sCol], row[exCol])
			}
			if row[trapCol] != "0" {
				t.Errorf("termination traps %q, want 0", row[trapCol])
			}
		})
	}
	if got := strings.Join(tops, ","); got != "2,3,4" {
		t.Errorf("quick E9 rows cover FlagTop %s, want 2,3,4", got)
	}
}

func TestE10Thresholds(t *testing.T) {
	t.Parallel()
	tables := runE10(quickCfg())
	t1 := tables[0]
	lowCol := column(t1, "fooled @ FlagTop 2c+1")
	okCol := column(t1, "fooled @ FlagTop 2c+2")
	for _, row := range t1.Rows {
		if row[lowCol] != "yes" {
			t.Errorf("capacity %s: 2c+1 flags not fooled: %v", row[0], row)
		}
		if row[okCol] != "no" {
			t.Errorf("capacity %s: 2c+2 flags fooled: %v", row[0], row)
		}
	}
	t2 := tables[1]
	vCol := column(t2, "violations")
	toCol := column(t2, "timeouts")
	for _, row := range t2.Rows {
		if row[vCol] != "0" || row[toCol] != "0" {
			t.Errorf("capacity %s: violations/timeouts nonzero: %v", row[0], row)
		}
	}
}

// fmtSscan wraps fmt.Sscan to keep the test imports tidy.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

// TestParallelRunnerDeterminism pins the tentpole contract of the trial
// runner: one Config renders byte-identical tables at Parallelism 1, 4,
// and NumCPU. Combined with `go test -race`, this also exercises the
// worker pool for data races.
func TestParallelRunnerDeterminism(t *testing.T) {
	t.Parallel()
	// A mix of trial-heavy (E3, E7, E11) and row-parallel (E1) experiments
	// keeps the run fast while covering both fan-out shapes.
	ids := []string{"E1", "E3", "E7", "E11"}
	render := func(parallelism int) string {
		var sb strings.Builder
		cfg := Config{Quick: true, Trials: 8, Seed: 3, Parallelism: parallelism}
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s not registered", id)
			}
			for _, tab := range e.Run(cfg) {
				tab.Render(&sb)
			}
		}
		return sb.String()
	}
	want := render(1)
	for _, parallelism := range []int{4, runtime.NumCPU()} {
		if got := render(parallelism); got != want {
			t.Errorf("tables differ between Parallelism 1 and %d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				parallelism, want, got)
		}
	}
}

func TestTrialSeedPureFunction(t *testing.T) {
	t.Parallel()
	if TrialSeed(1, 2, 3) != TrialSeed(1, 2, 3) {
		t.Fatal("TrialSeed not deterministic")
	}
	// Adjacent coordinates must not collide: rows share no seeds.
	seen := make(map[uint64]bool)
	for row := 0; row < 30; row++ {
		for trial := 0; trial < 200; trial++ {
			s := TrialSeed(7, row, trial)
			if seen[s] {
				t.Fatalf("seed collision at row %d trial %d", row, trial)
			}
			seen[s] = true
		}
	}
}

func TestE11CrashBoundary(t *testing.T) {
	t.Parallel()
	tables := runE11(quickCfg())
	tab := tables[0]
	fabCol := column(tab, "fabricated completions")
	crCol := column(tab, "crashed handshakes done")
	decCol := column(tab, "decisions")
	for _, row := range tab.Rows {
		if row[fabCol] != "0" || row[crCol] != "0" {
			t.Errorf("crash row %v forged progress", row)
		}
		k := row[1]
		if k == "0" && row[decCol] == "0" {
			t.Errorf("crash-free row %v never decided", row)
		}
		if k != "0" && row[decCol] != "0" {
			t.Errorf("row %v decided despite crashes", row)
		}
	}
}
