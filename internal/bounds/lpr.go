package bounds

import (
	"math"

	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/pb"
)

// LPR is the linear-programming-relaxation lower bound (§3.1): relax the
// reduced problem's variables to [0,1] and take ⌈z*_lpr⌉.
//
// Rather than the primal
//
//	min c·x  s.t.  G·x ≥ d,  0 ≤ x ≤ 1,
//
// the estimator solves the equivalent dual
//
//	min −d·y + Σ_j w_j  s.t.  −Gᵀ·y + w ≥ −c,  y, w ≥ 0,
//
// which is always feasible at (y,w) = 0 for non-negative costs, so the
// simplex needs no phase 1 and every iterate is feasible: under an iteration
// cap the current y still yields a valid (merely weaker) Lagrangian bound —
// per-node cost is bounded without ever compromising soundness. At
// optimality the duals of the dual are the primal x values, which feed the
// §5 LP-guided branching heuristic.
//
// The responsible set S (§4.2) is the set of rows with positive multiplier
// y_i — a subset of the paper's zero-slack rows, giving a stronger (smaller)
// explanation that remains sound by weak duality: the final bound is
// recomputed from the multipliers restricted to S.
//
// When Cuts is wired, the relaxation is additionally tightened with pooled
// cutting planes (lifted knapsack covers and clique cuts — internal/cuts):
// each globally valid cut is residualized under the current assignment and
// installed as one more primal row, i.e. one more y column of the dual, so
// the whole warm-start/anytime machinery applies to cut rows unchanged. New
// cuts are separated at the LP optimum (to a fixpoint at the root, one round
// at every few deep estimations on the pool's cadence) and the LP is
// re-solved through the warm basis after each round. Cut rows that earn a
// positive multiplier contribute the cut's false literals to the explanation
// instead of an engine row index (Result.ResponsibleLits) and bump the cut's
// pool activity.
type LPR struct {
	// MaxIter bounds simplex iterations per call (0 = 4·(m+n)+200, a cap
	// that keeps per-node cost proportional to the reduced problem size).
	MaxIter int
	// State, when non-nil, enables warm-started LP solves: the basis of each
	// solve is snapshotted into State and reused by the next call (see
	// LPRState). The search always sets it; nil solves cold in fresh memory,
	// the stateless oracle the tests compare against.
	State *LPRState
	// Cuts, when non-nil, is the managed cut pool: pooled cuts tighten every
	// node LP, and the estimator separates new ones at LP optima under the
	// pool's budgets. nil disables cutting planes entirely.
	Cuts *cuts.Pool
}

// Name implements Estimator.
func (LPR) Name() string { return "lpr" }

// Estimate implements Estimator.
func (l LPR) Estimate(e *engine.Engine, red *Reduced, cost []int64, target int64, bud Budget) Result {
	if red.Infeasible {
		return Result{Bound: InfBound, Responsible: []int{red.InfeasibleRow}}
	}
	if len(red.Rows) == 0 {
		return Result{}
	}
	// fault point "lpr.solve": tests inject panics/delays here to exercise
	// the search's panic recovery, MIS fallback and circuit breaker.
	fault.Fire("lpr.solve")
	// With a State, the estimation works in the state's memory (reused node
	// to node); without one, in fresh memory — the cold oracle path.
	sc := &lprScratch{}
	if l.State != nil {
		sc = l.State.work()
	}
	xp := &sc.xp
	xp.load(red, cost)
	inst := &sc.inst
	inst.install(e, xp, l.Cuts, cost)
	if inst.infeasible {
		// A residualized pooled cut is unsatisfiable even with every
		// unassigned literal true: the node is hopeless, and the cut's false
		// literals are the whole explanation (the cut is valid for the
		// original problem, so any node keeping them false is equally dead).
		return Result{Bound: InfBound, ResponsibleLits: inst.infeasibleLits}
	}

	sol, err := l.solveDual(sc, inst, &bud)
	if err != nil {
		// Malformed LP (should not happen for Extract output): report a
		// failed call so the ladder can fall back rather than silently
		// losing pruning power node after node.
		return Result{Failed: true}
	}

	if l.Cuts != nil && sol.Status == lp.Optimal {
		depth := e.DecisionLevel()
		if l.Cuts.Probe(depth) {
			rounds := 1
			if depth == 0 {
				rounds = cuts.MaxRootRounds // root: separate to a fixpoint
			}
			sol = l.separationRounds(e, red, sc, cost, sol, &bud, rounds)
			if inst.infeasible {
				return Result{Bound: InfBound, ResponsibleLits: inst.infeasibleLits}
			}
		}
	}

	switch sol.Status {
	case lp.Unbounded:
		// The dual is unbounded iff the primal relaxation is infeasible:
		// no completion satisfies the reduced rows and residual cuts. Every
		// installed cut joins the explanation — the certificate may lean on
		// any of them.
		return Result{Bound: InfBound, Responsible: allRows(red), ResponsibleLits: inst.allFalseLits()}
	case lp.Numerical:
		// Floating-point corruption detected inside the simplex (genuine or
		// injected via "lp.pivot"): the solution is unusable.
		return Result{Failed: true}
	case lp.Optimal, lp.IterLimit:
		if sol.X == nil {
			return Result{Incomplete: sol.Status == lp.IterLimit}
		}
		// Recompute the bound from the multipliers (sound for any y ≥ 0;
		// under IterLimit this is the anytime bound). fault point
		// "lpr.value": tests corrupt the recomputed value to exercise the
		// NaN detection below.
		m, n := len(xp.rows), len(xp.vars)
		y := sol.X[:m]
		val, s, alpha := xp.lagrangianValue(y, 1e-9)
		val = fault.Corrupt("lpr.value", val)
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return Result{Failed: true}
		}
		res := Result{Bound: ceilBound(val), Incomplete: sol.Status == lp.IterLimit}
		// Clamp the rounded bound to the Lagrangian minimizer's cost when that
		// minimizer is a feasible completion: a rounded bound above a known
		// feasible completion is a provable float over-round (see completionCap).
		res.Bound = capToCompletion(res.Bound, xp, red, cost, alpha)
		if len(s) > 0 {
			res.Responsible = make([]int, 0, len(s))
		}
		for _, i := range s {
			if i < inst.m0 {
				res.Responsible = append(res.Responsible, xp.rows[i].engIdx)
				continue
			}
			// A cut row carries the bound: its false literals explain it, and
			// the pool learns the cut is earning its keep.
			k := i - inst.m0
			res.ResponsibleLits = append(res.ResponsibleLits, inst.falseLits[k]...)
			l.Cuts.Bump(inst.ids[k])
		}
		if sol.Status == lp.Optimal {
			// Primal x values are the duals of the dual rows.
			if sc.fracX == nil {
				sc.fracX = make(map[pb.Var]float64, n)
			}
			clear(sc.fracX)
			res.FracX = sc.fracX
			for j, v := range xp.vars {
				x := sol.Dual[j]
				if x < 0 {
					x = 0
				} else if x > 1 {
					x = 1
				}
				res.FracX[v] = x
			}
		}
		return res
	default:
		return Result{}
	}
}

// dualLP is the memory the dual LP is built in: the lp.Problem with its
// cost, bound and row slices, one arena for every row's entries, and the
// warm-start keys.
type dualLP struct {
	prob    lp.Problem
	entries []lp.Entry
	next    []int // per dual row: entry count, then next free arena slot
	varKeys []int64
	rowKeys []int64
}

// build writes the dual of xp's LP into d (problem rows and installed cut
// rows alike become y columns):
//
//	min −d·y + Σ_j w_j  s.t.  w_j − Σ_i G_ij·y_i ≥ −c_j,  y, w ≥ 0.
//
// Warm keys: y columns by 2·engine index, w columns by 2·var+1 (both
// direct-addressed by the LP workspace), cut y columns by ^pool id (a
// negative, sparse key — pool ids are never reused, so a basis never
// misbinds to a different cut after eviction), rows by var.
func (d *dualLP) build(xp *xProblem, inst *cutInstall) *lp.Problem {
	m, n := len(xp.rows), len(xp.vars)
	p := &d.prob
	p.NumVars = m + n
	p.Cost = fit(p.Cost, m+n)
	p.Lo = fit(p.Lo, m+n)
	p.Hi = fit(p.Hi, m+n)
	clear(p.Lo)
	inf := math.Inf(1)
	for i := range p.Hi {
		p.Hi[i] = inf
	}
	for i, xr := range xp.rows {
		p.Cost[i] = -xr.rhs // minimize −d·y
	}
	for j := 0; j < n; j++ {
		p.Cost[m+j] = 1 // + Σ w_j
	}
	// Dual row j holds w_j's unit entry, then −G_ij for every row i that
	// mentions x_j, in row order: count, lay the rows out in one arena,
	// scatter.
	next := fit(d.next, n)
	d.next = next
	for j := range next {
		next[j] = 1
	}
	for _, xr := range xp.rows {
		for _, en := range xr.entries {
			next[en.local]++
		}
	}
	total := 0
	for _, c := range next {
		total += c
	}
	ents := fit(d.entries, total)
	d.entries = ents
	p.Rows = fit(p.Rows, n)
	off := 0
	for j := 0; j < n; j++ {
		c := next[j]
		ents[off] = lp.Entry{Var: m + j, Coef: 1}
		p.Rows[j] = lp.Row{RHS: -xp.cost[j], Entries: ents[off : off+c : off+c]}
		next[j] = off + 1
		off += c
	}
	for i, xr := range xp.rows {
		for _, en := range xr.entries {
			ents[next[en.local]] = lp.Entry{Var: i, Coef: -en.coef}
			next[en.local]++
		}
	}

	d.varKeys = fit(d.varKeys, m+n)
	for i, xr := range xp.rows {
		if xr.engIdx >= 0 {
			d.varKeys[i] = 2 * int64(xr.engIdx)
		} else {
			d.varKeys[i] = ^inst.ids[i-inst.m0]
		}
	}
	d.rowKeys = fit(d.rowKeys, n)
	for j, v := range xp.vars {
		d.varKeys[m+j] = 2*int64(v) + 1
		d.rowKeys[j] = int64(v)
	}
	return p
}

// solveDual builds and solves the dual LP of the current x-space problem.
// With a State the solve is warm-started from, and snapshots into, the
// state's basis.
func (l LPR) solveDual(sc *lprScratch, inst *cutInstall, bud *Budget) (lp.Solution, error) {
	xp := &sc.xp
	m, n := len(xp.rows), len(xp.vars)
	prob := sc.dual.build(xp, inst)
	prob.MaxIter = l.MaxIter
	if prob.MaxIter == 0 {
		prob.MaxIter = 4*(m+n) + 200
	}
	prob.Deadline = bud.Deadline // per-node bound budget reaches the simplex

	st := l.State
	if st == nil {
		return lp.Solve(prob)
	}
	hadBasis := st.HasBasis()
	sol, err := sc.ws.SolveWarm(prob, sc.dual.varKeys, sc.dual.rowKeys, &st.basis)
	if err == nil {
		if sol.Warm {
			st.warmSolves++
		} else {
			st.coldSolves++
			if hadBasis {
				st.warmFallbacks++
			}
		}
	}
	if err != nil || sol.Status == lp.Numerical {
		// A basis that produced (or accompanied) numerical corruption is
		// not worth keeping.
		st.Invalidate()
	}
	return sol, err
}

// separationRounds runs up to rounds separate→install→re-solve cycles from
// the LP optimum sol, returning the last trustworthy solution (always
// describing the x-space problem as left in xp).
//
// Abandonment discipline: whenever a round is cut short — the budget
// expires between rounds, or a re-solve comes back unusable — the warm
// basis snapshot in State is invalidated. The basis lease otherwise ends up
// describing a tableau with cut rows the caller's Result never saw, and the
// next estimation would warm-start from a phantom problem (the
// TestLPRCutsInterrupt* regressions pin this).
func (l LPR) separationRounds(e *engine.Engine, red *Reduced, sc *lprScratch, cost []int64, sol lp.Solution, bud *Budget, rounds int) lp.Solution {
	xp, inst := &sc.xp, &sc.inst
	for round := 0; round < rounds; round++ {
		if bud.Expired() {
			l.State.Invalidate()
			return sol
		}
		frac := fracPoint(e, xp, sol.Dual)
		if l.Cuts.Separate(cutSources(e, red), frac) == 0 {
			return sol // fixpoint: nothing violated remains separable
		}
		snap := inst.snapshot(xp)
		if inst.installNew(e, xp, l.Cuts, cost) == 0 {
			return sol
		}
		if inst.infeasible {
			return sol // caller returns the infeasible result
		}
		// The re-solve reuses the workspace's solution buffers: keep a copy
		// of the current solution in case the round has to be abandoned.
		sc.keptX = append(sc.keptX[:0], sol.X...)
		sc.keptDual = append(sc.keptDual[:0], sol.Dual...)
		sol.X, sol.Dual, sol.Slack = sc.keptX, sc.keptDual, nil
		sol2, err := l.solveDual(sc, inst, bud)
		if err != nil || sol2.Status == lp.Numerical || sol2.X == nil {
			// The augmented LP produced nothing usable: restore the problem
			// the previous solution describes and stop separating. solveDual
			// already invalidated the basis on err/Numerical; the X==nil
			// iteration-limit case must drop it too (it references the
			// augmented tableau).
			inst.rollback(xp, snap)
			l.State.Invalidate()
			return sol
		}
		sol = sol2
		if sol.Status != lp.Optimal {
			// Unbounded (node infeasible) or an anytime IterLimit bound:
			// either way there is no optimum to separate from.
			return sol
		}
	}
	return sol
}
