package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pb"
)

func randomPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(7)))
	}
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		_ = p.AddConstraint(terms, pb.GE, int64(rng.Intn(6)))
	}
	return p
}

// solve runs a constructor's options under a conflict budget.
func solve(p *pb.Problem, opt core.Options, maxConflicts int64) core.Result {
	opt.MaxConflicts = maxConflicts
	return core.Solve(p, opt)
}

// All solvers must agree with brute force (and hence each other).
func TestBaselinesAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const lim = 200000
	for iter := 0; iter < 150; iter++ {
		p := randomPBO(rng, 2+rng.Intn(6), 1+rng.Intn(7))
		want := pb.BruteForce(p)
		solvers := map[string]func() core.Result{
			"pbs":       func() core.Result { return solve(p, PBS(), lim) },
			"galena":    func() core.Result { return solve(GalenaPreprocess(p), Galena(), lim) },
			"bsolo-lpr": func() core.Result { return solve(p, Bsolo(core.LBLPR), lim) },
			"bsolo-mis": func() core.Result { return solve(p, Bsolo(core.LBMIS), lim) },
		}
		for name, run := range solvers {
			res := run()
			if want.Feasible {
				if res.Status != core.StatusOptimal {
					t.Fatalf("iter %d %s: status=%v want optimal", iter, name, res.Status)
				}
				if res.Best != want.Optimum {
					t.Fatalf("iter %d %s: best=%d want %d", iter, name, res.Best, want.Optimum)
				}
			} else if res.Status != core.StatusUnsat {
				t.Fatalf("iter %d %s: status=%v want unsat", iter, name, res.Status)
			}
		}
	}
}

// Galena's preprocessing must not change results on pure satisfaction
// instances either.
func TestGalenaPureSatisfaction(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 50; iter++ {
		n := 3 + rng.Intn(5)
		p := pb.NewProblem(n)
		for i := 0; i < 2+rng.Intn(6); i++ {
			nt := 1 + rng.Intn(3)
			terms := make([]pb.Term, nt)
			for k := range terms {
				terms[k] = pb.Term{Coef: 1, Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
			}
			_ = p.AddConstraint(terms, pb.GE, 1)
		}
		want := pb.BruteForce(p)
		res := solve(GalenaPreprocess(p), Galena(), 100000)
		if want.Feasible && res.Status != core.StatusSatisfiable {
			t.Fatalf("iter %d: status=%v want satisfiable", iter, res.Status)
		}
		if !want.Feasible && res.Status != core.StatusUnsat {
			t.Fatalf("iter %d: status=%v want unsat", iter, res.Status)
		}
	}
}

func TestPBSReportsIncumbentOnLimit(t *testing.T) {
	// A solvable instance with a tiny conflict budget either solves or
	// reports limit; with budget 1 on a nontrivial optimization it reports
	// the first incumbent as an "ub" entry (Table 1 style).
	rng := rand.New(rand.NewSource(3))
	p := randomPBO(rng, 10, 12)
	res := solve(p, PBS(), 1)
	if res.Status == core.StatusOptimal {
		return // solved within one conflict; fine
	}
	if res.Status != core.StatusLimit && res.Status != core.StatusUnsat {
		t.Fatalf("status=%v", res.Status)
	}
}
