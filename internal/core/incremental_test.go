package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/gen"
	"repro/internal/pb"
)

// TestIncrementalPipelineOptimaUnchanged asserts the incremental bound
// pipeline (persistent Reducer + LP warm starting) is a pure optimization.
// Node by node, fuzz.BoundPipeline checks the Reducer against bounds.Extract
// and the warm-started LPR bound against a cold solve. At search level, every
// lower-bound method must agree with plain branch and bound on feasibility
// and on the optimum.
func TestIncrementalPipelineOptimaUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	methods := []core.Method{core.LBNone, core.LBMIS, core.LBLGR, core.LBLPR}
	names := []string{"plain", "mis", "lgr", "lpr"}
	var totalWarm int64
	totalLPs := 0
	for iter := 0; iter < 8; iter++ {
		// Mix the paper's global-routing family (deep branch-and-bound trees,
		// so warm starting genuinely engages) with random covering-flavoured
		// instances for structural variety.
		var p *pb.Problem
		if iter < 4 {
			var err error
			p, err = gen.Grout(gen.GroutConfig{
				Width: 5, Height: 5, Nets: 8 + iter, PathsPerNet: 4,
				Capacity: 2, Seed: int64(100 + iter),
			})
			if err != nil {
				t.Fatalf("iter %d: grout: %v", iter, err)
			}
		} else {
			n := 14 + rng.Intn(12)
			p = pb.NewProblem(n)
			for v := 0; v < n; v++ {
				p.SetCost(pb.Var(v), int64(rng.Intn(10)))
			}
			m := n/2 + rng.Intn(n)
			for i := 0; i < m; i++ {
				nt := 2 + rng.Intn(4)
				terms := make([]pb.Term, nt)
				for k := range terms {
					terms[k] = pb.Term{
						Coef: int64(1 + rng.Intn(5)),
						Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
					}
				}
				_ = p.AddConstraint(terms, pb.GE, int64(1+rng.Intn(6)))
			}
		}
		ms, _, lps := fuzz.BoundPipeline(p, int64(iter+1))
		for _, m := range ms {
			t.Errorf("iter %d: %s", iter, m)
		}
		totalLPs += lps
		var ref core.Result
		for mi, method := range methods {
			res := core.Solve(p, core.Options{LowerBound: method, MaxConflicts: 500000})
			if res.Status == core.StatusLimit {
				t.Fatalf("iter %d %s: hit the conflict limit", iter, names[mi])
			}
			if mi == 0 {
				ref = res
			}
			if res.Status != ref.Status {
				t.Fatalf("iter %d %s: status %v, plain says %v", iter, names[mi], res.Status, ref.Status)
			}
			if res.Status != core.StatusOptimal {
				continue
			}
			if res.Best != ref.Best {
				t.Fatalf("iter %d %s: optimum %d, plain says %d", iter, names[mi], res.Best, ref.Best)
			}
			if !p.Feasible(res.Values) || p.ObjectiveValue(res.Values) != res.Best {
				t.Fatalf("iter %d %s: solution inconsistent with its claimed optimum", iter, names[mi])
			}
			totalWarm += res.Stats.Bounds.WarmSolves
		}
	}
	if totalLPs == 0 {
		t.Fatalf("the oracle walks compared no LP bounds")
	}
	if totalWarm == 0 {
		t.Fatalf("no warm LP solves happened across the whole run; warm starting is not engaging")
	}
}

// TestReusedLPRStateCountsPerSolve solves one instance twice through the same
// Options.LPRState, as the serving layer's session cache does. Each solve
// reports its own LP counts, at most one LP per LPR call (no cuts, so no
// separation re-solves), and the second solve starts from the cached basis.
func TestReusedLPRStateCountsPerSolve(t *testing.T) {
	p, err := gen.Grout(gen.GroutConfig{
		Width: 5, Height: 5, Nets: 10, PathsPerNet: 4, Capacity: 2, Seed: 102,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &bounds.LPRState{}
	for run := 1; run <= 2; run++ {
		res := core.Solve(p, core.Options{LowerBound: core.LBLPR, NoCuts: true, LPRState: st})
		if res.Status != core.StatusOptimal {
			t.Fatalf("run %d: status %v", run, res.Status)
		}
		bs := res.Stats.Bounds
		lps, calls := bs.WarmSolves+bs.ColdSolves, bs.Per["lpr"].Calls
		if lps <= 0 || lps > calls {
			t.Fatalf("run %d: %d LP solves (%d warm, %d cold) for %d LPR calls, want 0 < solves ≤ calls",
				run, lps, bs.WarmSolves, bs.ColdSolves, calls)
		}
		if run == 2 && bs.WarmSolves == 0 {
			t.Fatalf("run 2 started from a cached basis but counted no warm solves")
		}
	}
}
