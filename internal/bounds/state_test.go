package bounds

import (
	"testing"
	"time"

	"repro/internal/engine"
)

// TestLPRStateMatchesStateless walks decide/propagate/backjump over a
// fixture and, at every node, estimates LPR twice: through a persistent
// State (warm basis, reused workspace and arenas) and with State nil (a
// cold solve in fresh memory). The node LP is the same, so the bound must
// be too.
func TestLPRStateMatchesStateless(t *testing.T) {
	p := benchProblem(60, 90, 5)
	e := engine.New(p)
	st := &LPRState{}
	warm, cold := LPR{State: st}, LPR{}
	target := p.TotalCost() + 1
	nodes := 0
	nodeWalk(t, e, 11, func() {
		red := Extract(e)
		if red.Infeasible || len(red.Rows) == 0 {
			return
		}
		w := warm.Estimate(e, red, p.Cost, target, Budget{})
		c := cold.Estimate(e, red, p.Cost, target, Budget{})
		if w.Failed || c.Failed || w.Incomplete || c.Incomplete {
			t.Fatalf("node %d: failed/incomplete estimate: warm %+v cold %+v", nodes, w, c)
		}
		if w.Bound != c.Bound {
			t.Fatalf("node %d: bound with State %d, without %d", nodes, w.Bound, c.Bound)
		}
		nodes++
	})
	if nodes < 100 || st.WarmSolves() == 0 {
		t.Fatalf("walk too short to mean anything: %d nodes, %d warm solves", nodes, st.WarmSolves())
	}
}

// TestLPRExpiredBudgetIsIncomplete: an estimation whose budget has already
// expired ends at the first deadline poll of the LP build or basis crash,
// and reports the anytime outcome — Incomplete, never Failed — whether it
// starts cold, starts from a stored basis, or runs without a State.
func TestLPRExpiredBudgetIsIncomplete(t *testing.T) {
	p := benchProblem(60, 90, 5)
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		t.Fatal("fixture conflicts at the root")
	}
	red := Extract(e)
	target := p.TotalCost() + 1
	past := Budget{Deadline: time.Now().Add(-time.Second)}

	st := &LPRState{}
	check := func(name string, l LPR) {
		res := l.Estimate(e, red, p.Cost, target, past)
		if res.Failed || !res.Incomplete {
			t.Fatalf("%s: expired budget gave %+v, want Incomplete", name, res)
		}
	}
	check("cold state", LPR{State: st})
	if res := (LPR{State: st}).Estimate(e, red, p.Cost, target, Budget{}); res.Failed || res.Incomplete || !st.HasBasis() {
		t.Fatalf("unlimited estimate: %+v, basis stored %v", res, st.HasBasis())
	}
	check("warm state", LPR{State: st})
	if !st.HasBasis() {
		t.Fatal("an expired estimate dropped the stored basis")
	}
	check("no state", LPR{})
}
