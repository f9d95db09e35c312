package fuzz

import (
	"fmt"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/pb"
)

// pipelineSteps is the length of the bound-pipeline node walk.
const pipelineSteps = 200

// BoundPipeline checks the solver's bound pipeline against its stateless
// oracles at every node of a seeded decide/propagate/backjump walk over p:
//
//   - the persistent bounds.Reducer's reduction must equal a fresh
//     bounds.Extract (same rows in the same order, same degrees and terms,
//     same infeasibility verdict), and
//   - when both complete, the LPR bound estimated through a persistent
//     bounds.LPRState (warm basis, reused workspace) must equal a cold
//     LPR{} solve in fresh memory.
//
// The walk runs without cuts, so both LPs are the same node LP. It stops at
// the first mismatch. nodes and lps count the nodes visited and the LP
// bounds compared.
func BoundPipeline(p *pb.Problem, seed int64) (ms []Mismatch, nodes, lps int) {
	e := engine.New(p)
	r := bounds.NewReducer(e)
	defer r.Detach()
	warm, cold := bounds.LPR{State: &bounds.LPRState{}}, bounds.LPR{}
	target := p.TotalCost() + 1
	fail := func(format string, args ...any) {
		ms = append(ms, Mismatch{Config: "bound-pipeline",
			Detail: fmt.Sprintf("node %d: ", nodes) + fmt.Sprintf(format, args...)})
	}
	visit := func() bool {
		nodes++
		got, want := r.Reduce(), bounds.Extract(e)
		if d := diffReduced(got, want); d != "" {
			fail("reducer and Extract disagree: %s", d)
			return false
		}
		if got.Infeasible || len(got.Rows) == 0 {
			return true // no LP to solve
		}
		w := warm.Estimate(e, got, p.Cost, target, bounds.Budget{})
		c := cold.Estimate(e, want, p.Cost, target, bounds.Budget{})
		if w.Failed || c.Failed || w.Incomplete || c.Incomplete {
			return true
		}
		lps++
		if w.Bound != c.Bound {
			fail("LPR bound %d with a persistent state, %d without", w.Bound, c.Bound)
			return false
		}
		return true
	}

	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		visit()
		return ms, nodes, lps
	}
	// The root is visited first, then the node after every step.
	rng := rand.New(rand.NewSource(seed))
	for step := 0; visit() && step < pipelineSteps; step++ {
		if rng.Intn(12) == 0 && e.DecisionLevel() > 0 {
			e.BacktrackTo(rng.Intn(e.DecisionLevel()))
			continue
		}
		v := e.PickBranchVar()
		if v < 0 {
			e.BacktrackTo(0)
			continue
		}
		e.Decide(pb.MkLit(v, rng.Intn(4) != 0))
		if e.Propagate() >= 0 {
			e.BacktrackTo(e.DecisionLevel() - 1)
		}
	}
	return ms, nodes, lps
}

// diffReduced describes the first difference between two reductions, or
// returns "" when they are identical.
func diffReduced(got, want *bounds.Reduced) string {
	if got.Infeasible != want.Infeasible || (want.Infeasible && got.InfeasibleRow != want.InfeasibleRow) {
		return fmt.Sprintf("infeasible %v (row %d) against %v (row %d)",
			got.Infeasible, got.InfeasibleRow, want.Infeasible, want.InfeasibleRow)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows against %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		g, w := &got.Rows[i], &want.Rows[i]
		if g.EngIdx != w.EngIdx || g.Degree != w.Degree || len(g.Terms) != len(w.Terms) {
			return fmt.Sprintf("row %d: constraint %d degree %d with %d terms against constraint %d degree %d with %d terms",
				i, g.EngIdx, g.Degree, len(g.Terms), w.EngIdx, w.Degree, len(w.Terms))
		}
		for k := range w.Terms {
			if g.Terms[k] != w.Terms[k] {
				return fmt.Sprintf("row %d (constraint %d) term %d: %+v against %+v", i, w.EngIdx, k, g.Terms[k], w.Terms[k])
			}
		}
	}
	return ""
}
