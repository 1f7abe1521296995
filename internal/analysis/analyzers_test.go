package analysis_test

import (
	"testing"

	"github.com/snapstab/snapstab/internal/analysis"
	"github.com/snapstab/snapstab/internal/analysis/analysistest"
)

// Each analyzer is exercised on fixture packages carrying // want
// expectations for every hit, plus clean packages (or clean functions in
// the same fixture) proving the no-hit side: path gating, exempt idioms,
// and lint:ignore suppression.

func TestDeterminism(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysistest.TestData(), analysis.Determinism, "internal/sim", "plainpkg")
}

func TestLockOrder(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysistest.TestData(), analysis.LockOrder, "internal/transport/engine", "plainpkg")
}

func TestPoolAlias(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysistest.TestData(), analysis.PoolAlias, "poolalias", "wirestub")
}

func TestSentErr(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysistest.TestData(), analysis.SentErr, "senterr")
}

func TestEventDiscipline(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, analysistest.TestData(), analysis.EventDiscipline, "eventdisc")
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	all := analysis.All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d analyzers, want 5", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
