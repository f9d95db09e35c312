package harness

import (
	"testing"

	"repro/internal/pb"
	"repro/internal/wbo"
)

// TestWboFamilyMatrix runs the WBO family at test scale through the
// core-guided column, the mixed portfolio and a plain exact column: every
// cell must solve, and the three verdicts must agree with the brute-force
// optimum of the shared compilation.
func TestWboFamilyMatrix(t *testing.T) {
	insts, err := Instances([]Family{FamilyWbo}, Scale{WboVars: 7, PerFamily: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 3 {
		t.Fatalf("got %d instances, want 3", len(insts))
	}
	lim := Limits{MaxConflicts: 500000}
	for _, inst := range insts {
		if inst.WBO == nil {
			t.Fatalf("%s: missing WBO payload", inst.Name)
		}
		if inst.WBO.Offset != 0 {
			t.Fatalf("%s: generator produced nonzero offset %d — columns not comparable",
				inst.Name, inst.WBO.Offset)
		}
		want := pb.BruteForce(inst.Prob)
		if !want.Feasible {
			t.Fatalf("%s: compiled problem infeasible (relaxation bug)", inst.Name)
		}
		for _, id := range []SolverID{SolverCoreGuided, SolverPortfolioWbo, SolverMIS} {
			rr := Run(inst, id, lim)
			if rr.Err != "" {
				t.Fatalf("%s/%s: %s", inst.Name, id, rr.Err)
			}
			if !rr.Solved || rr.Best != want.Optimum {
				t.Fatalf("%s/%s: solved=%v best=%d want optimal/%d",
					inst.Name, id, rr.Solved, rr.Best, want.Optimum)
			}
		}
	}
}

// TestCoreGuidedColumnRefusesNonWboRows pins the guard: the core-guided
// columns are meaningless without the WBO payload and must fail the cell
// rather than silently solving nothing.
func TestCoreGuidedColumnRefusesNonWboRows(t *testing.T) {
	insts, err := Instances([]Family{FamilySynth}, Scale{SynthNodes: 6, PerFamily: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []SolverID{SolverCoreGuided, SolverPortfolioWbo} {
		rr := Run(insts[0], id, Limits{MaxConflicts: 1000})
		if rr.Err == "" || rr.Solved {
			t.Fatalf("%s on a non-wbo row: err=%q solved=%v want error cell", id, rr.Err, rr.Solved)
		}
	}
}

// TestWboOffsetColumnsAgree pins that every column on a WBO row reports the
// compiled cost: the instance Offset lives outside the compiled objective,
// so the core-guided column must not add it when the exact columns do not.
func TestWboOffsetColumnsAgree(t *testing.T) {
	lit := func(v int, neg bool) []pb.Term { return []pb.Term{{Coef: 1, Lit: pb.MkLit(pb.Var(v), neg)}} }
	wi := &wbo.Instance{
		NumVars: 2,
		Hard:    []wbo.HardCons{{Terms: append(lit(0, false), lit(1, false)...), Cmp: pb.GE, Rhs: 1}},
		Soft: []wbo.SoftCons{
			{Weight: 3, Terms: lit(0, true), Cmp: pb.GE, Rhs: 1},
			{Weight: 2, Terms: lit(1, true), Cmp: pb.GE, Rhs: 1},
		},
		Offset: 4,
	}
	b, err := wi.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	want := pb.BruteForce(p)
	if !want.Feasible || want.Optimum != 2 {
		t.Fatalf("compiled optimum %d (feasible=%v), want 2", want.Optimum, want.Feasible)
	}
	inst := Instance{Name: "wbo-offset", Family: FamilyWbo, Prob: p, WBO: wi}
	for _, id := range []SolverID{SolverCoreGuided, SolverPortfolioWbo, SolverMIS} {
		rr := Run(inst, id, Limits{MaxConflicts: 10000})
		if rr.Err != "" || !rr.Solved || !rr.HasUB || rr.Best != want.Optimum {
			t.Fatalf("%s: err=%q solved=%v best=%d, want optimal %d (compiled cost, offset excluded)",
				id, rr.Err, rr.Solved, rr.Best, want.Optimum)
		}
	}
}
