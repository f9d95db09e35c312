package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/milp"
	"repro/internal/opb"
	"repro/internal/pb"
)

// fixtureWant holds the independently computed ground truth for each
// testdata instance (verified by pb.BruteForce inside the test as well —
// the literal values here guard against silent parser drift).
var fixtureWant = map[string]struct {
	feasible bool
	optimum  int64 // meaningful only when feasible and hasObjective
	hasObj   bool
}{
	"vertexcover.opb":  {feasible: true, optimum: 6, hasObj: true},
	"knapsack.opb":     {feasible: true, optimum: 13, hasObj: true},
	"unsat.opb":        {feasible: false},
	"cardinality.opb":  {feasible: true, optimum: 2, hasObj: true},
	"general_pb.opb":   {feasible: true, optimum: 7, hasObj: true},
	"equality.opb":     {feasible: true, optimum: 6, hasObj: true},
	"nonlinear.opb":    {feasible: true, optimum: 2, hasObj: true},
	"negcost.opb":      {feasible: true, optimum: -6, hasObj: true},
	"satisfaction.opb": {feasible: true},
	"bigcoef.opb":      {feasible: true, optimum: 11, hasObj: true},
}

func loadFixture(t *testing.T, name string) *pb.Problem {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := opb.Parse(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestFixturesGroundTruth cross-checks the recorded optima against the
// brute-force reference (so the table above cannot rot) and then demands
// that every solver reproduce them.
func TestFixturesGroundTruth(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		if e.IsDir() {
			continue // e.g. fuzz-corpus/, replayed by internal/fuzz.TestFuzzCorpus
		}
		want, ok := fixtureWant[e.Name()]
		if !ok {
			t.Fatalf("fixture %s has no recorded ground truth", e.Name())
		}
		seen++
		p := loadFixture(t, e.Name())
		ref := pb.BruteForce(p)
		if ref.Feasible != want.feasible {
			t.Fatalf("%s: brute feasible=%v, table says %v", e.Name(), ref.Feasible, want.feasible)
		}
		if want.feasible && want.hasObj && ref.Optimum != want.optimum {
			t.Fatalf("%s: brute optimum=%d, table says %d", e.Name(), ref.Optimum, want.optimum)
		}
	}
	if seen != len(fixtureWant) {
		t.Fatalf("testdata has %d fixtures, table has %d", seen, len(fixtureWant))
	}
}

func TestFixturesAllSolvers(t *testing.T) {
	solve := func(p *pb.Problem, opt core.Options) core.Result {
		opt.MaxConflicts = 500000
		return core.Solve(p, opt)
	}
	for name, want := range fixtureWant {
		p := loadFixture(t, name)
		runs := map[string]core.Result{
			"pbs":    solve(p, baseline.PBS()),
			"galena": solve(baseline.GalenaPreprocess(p), baseline.Galena()),
			"plain":  solve(p, baseline.Bsolo(core.LBNone)),
			"mis":    solve(p, baseline.Bsolo(core.LBMIS)),
			"lgr":    solve(p, baseline.Bsolo(core.LBLGR)),
			"lpr":    solve(p, baseline.Bsolo(core.LBLPR)),
		}
		for solver, res := range runs {
			switch {
			case !want.feasible:
				if res.Status != core.StatusUnsat {
					t.Fatalf("%s/%s: status=%v want unsat", name, solver, res.Status)
				}
			case !want.hasObj:
				if res.Status != core.StatusSatisfiable {
					t.Fatalf("%s/%s: status=%v want satisfiable", name, solver, res.Status)
				}
			default:
				if res.Status != core.StatusOptimal || res.Best != want.optimum {
					t.Fatalf("%s/%s: got %v/%d want optimal/%d", name, solver, res.Status, res.Best, want.optimum)
				}
			}
		}
		// MILP column.
		m := milp.Solve(p, milp.Options{MaxNodes: 500000})
		switch {
		case !want.feasible:
			if m.Status != milp.StatusInfeasible {
				t.Fatalf("%s/milp: status=%v want infeasible", name, m.Status)
			}
		case want.hasObj:
			if m.Status != milp.StatusOptimal || m.Best != want.optimum {
				t.Fatalf("%s/milp: got %v/%d want optimal/%d", name, m.Status, m.Best, want.optimum)
			}
		}
	}
}
