package milp

import (
	"math/rand"
	"testing"

	"repro/internal/pb"
)

func TestSimpleOptimum(t *testing.T) {
	p := pb.NewProblem(3)
	p.SetCost(0, 3)
	p.SetCost(1, 1)
	p.SetCost(2, 2)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddClause(pb.PosLit(1), pb.PosLit(2))
	res := Solve(p, Options{})
	if res.Status != StatusOptimal || res.Best != 1 {
		t.Fatalf("%+v", res)
	}
}

func TestInfeasible(t *testing.T) {
	p := pb.NewProblem(1)
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddClause(pb.NegLit(0))
	res := Solve(p, Options{})
	if res.Status != StatusInfeasible {
		t.Fatalf("%+v", res)
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		p := pb.NewProblem(n)
		for v := 0; v < n; v++ {
			p.SetCost(pb.Var(v), int64(rng.Intn(7)))
		}
		for i := 0; i < 1+rng.Intn(7); i++ {
			nt := 1 + rng.Intn(4)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{
					Coef: int64(1 + rng.Intn(4)),
					Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
				}
			}
			cmp := pb.GE
			if rng.Intn(4) == 0 {
				cmp = pb.LE
			}
			_ = p.AddConstraint(terms, cmp, int64(rng.Intn(6)))
		}
		want := pb.BruteForce(p)
		res := Solve(p, Options{MaxNodes: 500000})
		if want.Feasible {
			if res.Status != StatusOptimal {
				t.Fatalf("iter %d: status=%v want optimal", iter, res.Status)
			}
			if res.Best != want.Optimum {
				t.Fatalf("iter %d: best=%d want %d", iter, res.Best, want.Optimum)
			}
			if !p.Feasible(res.Values) {
				t.Fatalf("iter %d: infeasible values", iter)
			}
		} else if res.Status != StatusInfeasible {
			t.Fatalf("iter %d: status=%v want infeasible", iter, res.Status)
		}
	}
}

func TestCostOffset(t *testing.T) {
	p := pb.NewProblem(1)
	p.SetCost(0, 5)
	p.CostOffset = 10
	_ = p.AddClause(pb.PosLit(0))
	res := Solve(p, Options{})
	if res.Status != StatusOptimal || res.Best != 15 {
		t.Fatalf("%+v", res)
	}
}

func TestNodeLimit(t *testing.T) {
	// Fractional root LP (x = (2/3, 2/3)) forces branching; a single-node
	// budget must therefore end in StatusLimit.
	p := pb.NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 2, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 2)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 2, Lit: pb.PosLit(1)}}, pb.GE, 2)
	res := Solve(p, Options{MaxNodes: 1})
	if res.Status != StatusLimit {
		t.Fatalf("status=%v want limit", res.Status)
	}
}

func TestPureSatisfactionSolvable(t *testing.T) {
	// Feasible zero-objective instance: MILP should still find a solution.
	p := pb.NewProblem(4)
	_ = p.AddClause(pb.PosLit(0), pb.PosLit(1))
	_ = p.AddAtLeast([]pb.Lit{pb.PosLit(1), pb.PosLit(2), pb.PosLit(3)}, 2)
	res := Solve(p, Options{})
	if res.Status != StatusOptimal || !res.HasSolution {
		t.Fatalf("%+v", res)
	}
	if !p.Feasible(res.Values) {
		t.Fatal("infeasible assignment")
	}
}

func TestStatusString(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" || StatusLimit.String() != "limit" {
		t.Fatal("strings")
	}
}
