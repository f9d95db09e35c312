package bounds

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pb"
)

// benchProblem builds a mid-size covering-flavoured instance: large enough
// that Extract's full-store scan has real cost, structured so random walks
// stay conflict-light.
func benchProblem(n, m int, seed int64) *pb.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(1+rng.Intn(10)))
	}
	for i := 0; i < m; i++ {
		nt := 3 + rng.Intn(5)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), false),
			}
		}
		_ = p.AddConstraint(terms, pb.GE, 2)
	}
	return p
}

// nodeWalk replays a deterministic decide/propagate/backjump walk over the
// engine, invoking visit at every node (the point where the search would
// build the reduced problem). Both reduction benchmarks replay the identical
// walk, so the only measured difference is the reduction strategy.
func nodeWalk(tb testing.TB, e *engine.Engine, seed int64, visit func()) {
	rng := rand.New(rand.NewSource(seed))
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		tb.Fatal("bench instance conflicts at the root")
	}
	for step := 0; step < 400; step++ {
		if rng.Intn(12) == 0 && e.DecisionLevel() > 0 {
			e.BacktrackTo(rng.Intn(e.DecisionLevel()))
			visit()
			continue
		}
		v := e.PickBranchVar()
		if v < 0 {
			e.BacktrackTo(0)
			visit()
			continue
		}
		e.Decide(pb.MkLit(v, rng.Intn(4) != 0))
		if e.Propagate() >= 0 {
			if e.DecisionLevel() == 0 {
				tb.Fatal("bench instance infeasible")
			}
			e.BacktrackTo(e.DecisionLevel() - 1)
		}
		visit()
	}
	e.BacktrackTo(0)
}

// BenchmarkExtract measures the from-scratch per-node reduction: a full scan
// over the constraint store with fresh allocations at every node.
func BenchmarkExtract(b *testing.B) {
	p := benchProblem(300, 600, 7)
	e := engine.New(p)
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeWalk(b, e, 99, func() {
			rows += len(Extract(e).Rows)
		})
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/walk")
}

// BenchmarkReducerIncremental measures the persistent Reducer on the
// identical walk: trail-delta maintenance plus buffer reuse.
func BenchmarkReducerIncremental(b *testing.B) {
	p := benchProblem(300, 600, 7)
	e := engine.New(p)
	r := NewReducer(e)
	defer r.Detach()
	var rows int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeWalk(b, e, 99, func() {
			rows += len(r.Reduce().Rows)
		})
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/walk")
}
