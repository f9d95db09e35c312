// Package lp implements a dense bounded-variable two-phase primal simplex
// solver for linear programs of the form
//
//	minimize   c·x
//	subject to Σ_j A_ij·x_j ≥ b_i    for every row i
//	           lo_j ≤ x_j ≤ hi_j     (default 0 ≤ x_j ≤ 1)
//
// This is the LP-relaxation substrate (§3.1 of the paper): the pseudo-Boolean
// relaxation always has 0/1 variable bounds, and the MILP baseline reuses the
// same solver with tightened bounds during branching. The implementation is a
// classical tableau simplex with upper-bounded variables, Dantzig pricing
// with a Bland's-rule fallback against cycling, and periodic recomputation of
// the basic solution to limit numerical drift.
package lp

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
)

// Entry is one nonzero coefficient of a row.
type Entry struct {
	Var  int
	Coef float64
}

// Row is the constraint Σ entries ≥ RHS.
type Row struct {
	Entries []Entry
	RHS     float64
}

// Problem is an LP instance. Lo and Hi may be nil, in which case every
// variable is bounded to [0,1].
type Problem struct {
	NumVars int
	Cost    []float64
	Rows    []Row
	Lo, Hi  []float64
	// MaxIter bounds the total number of simplex iterations (both phases).
	// Zero selects a size-dependent default.
	MaxIter int
	// Deadline, when non-zero, bounds wall-clock time: the solve returns
	// with Status IterLimit (the anytime outcome) as soon as the deadline is
	// observed, checked every few dozen iterations. This is how the search's
	// per-node bound budget propagates into the simplex.
	Deadline time.Time
}

// Status is the outcome of a solve.
type Status int

const (
	// Optimal: an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no point within the bounds.
	Infeasible
	// Unbounded: the objective decreases without bound (cannot occur when
	// all variables have finite bounds).
	Unbounded
	// IterLimit: the iteration budget (or the wall-clock Deadline) was
	// exhausted before optimality.
	IterLimit
	// Numerical: floating-point corruption (NaN/Inf) was detected in the
	// working state; the solution is unusable. Callers should treat this as
	// a failed bound call and fall back to a cheaper procedure.
	Numerical
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Numerical:
		return "numerical"
	default:
		return "iterlimit"
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// X is the primal solution (length NumVars).
	X []float64
	// Slack[i] = Σ A_ij·x_j − b_i for each row; a row is "tight" when its
	// slack is (numerically) zero.
	Slack []float64
	// Dual[i] is the dual multiplier of row i (≥ 0 at optimality for ≥ rows
	// in a minimization).
	Dual []float64
	// Iterations is the total simplex iteration count (including dual
	// simplex restoration steps on the warm-start path).
	Iterations int
	// Warm reports that the solve reused a previous basis (see SolveWarm);
	// false on the cold path, including warm attempts that fell back.
	Warm bool
}

const (
	epsPivot  = 1e-9
	epsCost   = 1e-7
	epsBound  = 1e-7
	epsPhase1 = 1e-6
)

type nbStatus uint8

const (
	atLower nbStatus = iota
	atUpper
)

// validate checks the problem for malformed input. A false ok means "stop":
// either err is set, or the bounds cross and the verdict is Infeasible.
func validate(p *Problem) (ok bool, err error) {
	n := p.NumVars
	if len(p.Cost) != n {
		return false, fmt.Errorf("lp: len(Cost)=%d != NumVars=%d", len(p.Cost), n)
	}
	if (p.Lo != nil && len(p.Lo) != n) || (p.Hi != nil && len(p.Hi) != n) {
		return false, fmt.Errorf("lp: bounds length mismatch")
	}
	for j := 0; j < n; j++ {
		lo, hi := 0.0, 1.0
		if p.Lo != nil {
			lo = p.Lo[j]
		}
		if p.Hi != nil {
			hi = p.Hi[j]
		}
		if lo > hi+epsBound {
			return false, nil
		}
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(p.Cost[j]) {
			return false, fmt.Errorf("lp: NaN in input")
		}
	}
	for i, r := range p.Rows {
		if math.IsNaN(r.RHS) {
			return false, fmt.Errorf("lp: NaN rhs in row %d", i)
		}
		for _, e := range r.Entries {
			if e.Var < 0 || e.Var >= n {
				return false, fmt.Errorf("lp: row %d references var %d out of range", i, e.Var)
			}
			if math.IsNaN(e.Coef) {
				return false, fmt.Errorf("lp: NaN coefficient in row %d", i)
			}
		}
	}
	return true, nil
}

// Solve solves the LP from scratch. It never panics on valid input;
// malformed input (entries out of range, NaN coefficients, lo > hi) yields
// an error. For re-solving a sequence of related LPs, see SolveWarm and
// Workspace.
func Solve(p *Problem) (Solution, error) {
	ok, err := validate(p)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return Solution{Status: Infeasible}, nil
	}
	var w Workspace
	sol, _ := w.solveCold(p)
	return sol, nil
}

// solveCold runs the classical two-phase solve. It reports whether the final
// simplex state is a usable basis (false when the solve ended before phase 2
// produced one — infeasible, iteration-capped or deadline-cut phase 1,
// numerical corruption).
func (w *Workspace) solveCold(p *Problem) (Solution, bool) {
	if pastDeadline(p.Deadline) {
		return Solution{Status: IterLimit}, false
	}
	// With every lower bound zero, a row's residual below is its rhs. When
	// no rhs is positive either — the LPR dual — no row ever needs an
	// artificial, all of them stay locked at zero, nothing reads their
	// columns, and the tableau leaves them out.
	zeroLo := true
	for _, lo := range p.Lo {
		if lo != 0 {
			zeroLo = false
			break
		}
	}
	artificials := 0
	for _, r := range p.Rows {
		if !zeroLo || r.RHS > 0 {
			artificials = len(p.Rows)
			break
		}
	}
	s := w.prepare(p, artificials)
	n, m := s.n, s.m

	// Working rows: A_i x − s_i = b_i, possibly negated so the initial
	// artificial value is non-negative with every structural nonbasic at its
	// lower bound and surplus at 0.
	//
	// Slack-basis crash: a row whose residual (with every structural
	// variable at its bound) is non-positive starts with its surplus
	// variable basic and needs no artificial; only rows with positive
	// residual get a basic artificial. Dual-style LPs (c ≥ 0, rhs ≤ 0)
	// therefore skip phase 1 entirely.
	needPhase1 := false
	for i, r := range p.Rows {
		if i%deadlineStride == 0 && s.expired() {
			return Solution{Status: IterLimit}, false
		}
		row := s.row(i)
		for _, e := range r.Entries {
			row[e.Var] += e.Coef
		}
		// Residual with nonbasic values plugged in.
		resid := r.RHS
		if !zeroLo {
			for j := 0; j < n; j++ {
				resid -= row[j] * s.xval[j]
			}
		}
		if resid > 0 {
			// Artificial basic (coefficient +1 keeps the unit-column
			// invariant); phase 1 must drive it out.
			row[n+i] = -1.0  // surplus
			row[n+m+i] = 1.0 // artificial
			s.rhsB[i] = r.RHS
			s.basis[i] = n + m + i
			s.inBasis[n+m+i] = true
			s.beta[i] = resid
			needPhase1 = true
		} else {
			// Surplus basic: negate the row so its column is +1 (the
			// Gauss-Jordan invariant requires basic columns to be unit
			// vectors). The surplus value −resid is non-negative, so the
			// basis is feasible and no artificial is ever needed.
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			row[n+i] = 1.0 // surplus (negated from −1)
			if artificials > 0 {
				row[n+m+i] = -1.0 // artificial (negated, permanently locked)
			}
			s.rhsB[i] = -r.RHS
			s.basis[i] = n + i
			s.inBasis[n+i] = true
			s.beta[i] = -resid
			s.hi[n+m+i] = 0
		}
	}

	// Phase 1: minimize the artificial sum (skipped when the slack basis is
	// already feasible).
	if needPhase1 {
		fit(&w.cost1, s.nTot, w.shrink)
		cost1 := w.cost1
		clear(cost1[:n+m])
		for j := n + m; j < s.nTot; j++ {
			cost1[j] = 1
		}
		st := s.run(cost1, false)
		if st == IterLimit || st == Numerical {
			return Solution{Status: st, Iterations: s.iters}, false
		}
		var art float64
		for i := 0; i < m; i++ {
			if s.basis[i] >= n+m {
				art += s.beta[i]
			}
		}
		for j := n + m; j < s.nTot; j++ {
			if !s.inBasis[j] {
				art += s.xval[j]
			}
		}
		if art > epsPhase1 {
			return Solution{Status: Infeasible, Iterations: s.iters}, false
		}
	}
	// Lock artificials at zero for phase 2.
	for j := n + m; j < s.nTot; j++ {
		s.hi[j] = 0
		if !s.inBasis[j] {
			s.xval[j] = 0
			s.status[j] = atLower
		}
	}

	// Phase 2.
	copy(s.cost, p.Cost)
	st := s.run(s.cost, false)
	if st == Unbounded || st == Numerical {
		return Solution{Status: st, Iterations: s.iters}, false
	}
	sol := w.extractSolution(p, st)
	return sol, sol.Status != Numerical
}

// extractSolution reads the primal point, objective, slacks and duals out of
// the final simplex state into the workspace's solution buffers. st is the
// phase-2 outcome (Optimal or IterLimit — in the latter case the basis is
// still primal-feasible, so the extracted point and duals remain usable: the
// anytime behaviour).
func (w *Workspace) extractSolution(p *Problem, st Status) Solution {
	s := &w.s
	n, m := s.n, s.m
	sol := Solution{Status: Optimal, Iterations: s.iters}
	if st == IterLimit {
		// Anytime behaviour: the basis is still primal-feasible, so the
		// extracted point and duals remain usable (the objective is an
		// upper approximation of the optimum; the projected duals give a
		// valid Lagrangian bound).
		sol.Status = IterLimit
	}
	// Extract primal values, clamped into bounds (numerical noise only).
	fit(&w.x, n, w.shrink)
	x := w.x
	for j := 0; j < n; j++ {
		if !s.inBasis[j] {
			x[j] = s.xval[j]
		}
	}
	for i := 0; i < m; i++ {
		if b := s.basis[i]; b < n {
			x[b] = s.beta[i]
		}
	}
	for j := 0; j < n; j++ {
		if x[j] < s.lo[j] {
			x[j] = s.lo[j]
		}
		if x[j] > s.hi[j] {
			x[j] = s.hi[j]
		}
	}
	sol.X = x
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.Cost[j] * x[j]
	}
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		// Corruption that slipped past the periodic checks (e.g. a NaN
		// introduced on the very last pivot): refuse to report a solution.
		return Solution{Status: Numerical, Iterations: s.iters}
	}
	sol.Objective = obj
	// Slacks from the original rows.
	fit(&w.slack, m, w.shrink)
	slack := w.slack
	for i, r := range p.Rows {
		lhs := 0.0
		for _, e := range r.Entries {
			lhs += e.Coef * x[e.Var]
		}
		slack[i] = lhs - r.RHS
	}
	sol.Slack = slack
	// Duals: the reduced cost of surplus variable i equals the dual of
	// original row i (sign conventions cancel; see package tests).
	fit(&w.dual, m, w.shrink)
	dual := w.dual
	// d_i = 0 − Σ_k cB_k·tab[k][n+i] (the cost of surplus var i is 0),
	// accumulated row by row over the surplus block.
	clear(dual)
	for k := 0; k < m; k++ {
		if c := s.cost[s.basis[k]]; c != 0 {
			surplus := s.row(k)[n : n+m]
			for i, t := range surplus {
				dual[i] -= c * t
			}
		}
	}
	for i, d := range dual {
		if d < 0 && d > -epsCost {
			dual[i] = 0
		}
	}
	sol.Dual = dual
	return sol
}

// activeCols collects into s.cols the columns a simplex phase works on:
// variables that are basic, can move, or sit nonbasic at a nonzero value
// (refreshBeta reads their tableau entries). Locked artificials drop out,
// and so does every artificial of a warm tableau, which has no column for
// them.
func (s *simplex) activeCols() []int {
	cols := s.cols[:0]
	for j := 0; j < s.width; j++ {
		if s.inBasis[j] || s.hi[j]-s.lo[j] >= epsBound || s.xval[j] != 0 {
			cols = append(cols, j)
		}
	}
	return cols
}

// reducedCosts sets d[j] = cost[j] − cB·B⁻¹A_j over cols.
func (s *simplex) reducedCosts(cost []float64, cols []int) {
	cB, d := s.cB, s.d
	for i := 0; i < s.m; i++ {
		cB[i] = cost[s.basis[i]]
	}
	for _, j := range cols {
		d[j] = cost[j]
	}
	for i := 0; i < s.m; i++ {
		if cB[i] == 0 {
			continue
		}
		subRow(d, s.row(i), cB[i], cols)
	}
}

// pivotOn makes column enter basic in row r: scale row r by 1/piv, then
// eliminate the column from every other row. Returns the nonzero columns
// (among cols) of the updated pivot row, which the caller's reduced-cost
// update reuses.
func (s *simplex) pivotOn(r, enter int, piv float64, cols []int) []int {
	inv := 1.0 / piv
	rowR := s.row(r)
	scaleRow(rowR, inv, cols)
	s.rhsB[r] *= inv
	nz := nonzeros(s.nz, rowR, cols)
	s.eliminate(r, enter, nz, nil)
	return nz
}

// run optimizes the given cost vector from the current basis. Returns
// Optimal, Unbounded or IterLimit.
//
// Reduced costs are maintained incrementally across pivots (recomputed
// periodically to contain drift), and all column work is restricted to the
// active columns: variables whose bounds allow movement or that sit in the
// basis. Locked artificials disappear from phase 2 entirely.
//
// dReady reports that s.d already holds the exact reduced costs of cost
// over the active columns (runDual's exit state when it shifted no cost);
// run then skips its opening recomputation, and the verification pass
// before declaring optimality is skipped whenever no pivot has happened
// since the last exact computation — both would reproduce the same values.
func (s *simplex) run(cost []float64, dReady bool) Status {
	cols := s.activeCols()
	d := s.d
	if !dReady {
		s.reducedCosts(cost, cols)
	}
	exact := true

	price := func(bland bool) int {
		enter := -1
		best := epsCost
		for _, j := range cols {
			if s.inBasis[j] || s.hi[j]-s.lo[j] < epsBound {
				continue
			}
			var viol float64
			if s.status[j] == atLower {
				viol = -d[j]
			} else {
				viol = d[j]
			}
			if viol > best {
				enter = j
				if bland {
					return j
				}
				best = viol
			}
		}
		return enter
	}

	blandAfter := s.maxIter / 2
	for ; s.iters < s.maxIter; s.iters++ {
		if s.iterExpired() {
			// Wall-clock budget exhausted: stop with the current (still
			// primal-feasible) basis — the anytime outcome.
			return IterLimit
		}
		if s.iters%256 == 255 {
			s.refreshBeta()
			s.reducedCosts(cost, cols)
			exact = true
			if s.corrupted() {
				return Numerical
			}
		}
		bland := s.iters > blandAfter
		enter := price(bland)
		if enter == -1 {
			// Verify against exact reduced costs before declaring optimality
			// (d is maintained incrementally and may have drifted).
			if exact {
				return Optimal
			}
			s.reducedCosts(cost, cols)
			exact = true
			if enter = price(bland); enter == -1 {
				return Optimal
			}
		}
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1.0
		}
		// Ratio test.
		t := s.hi[enter] - s.lo[enter] // bound-to-bound move
		blocking := -1
		for i := 0; i < s.m; i++ {
			delta := -dir * s.tab[i*s.width+enter]
			bi := s.basis[i]
			var limit float64
			switch {
			case delta > epsPivot:
				if math.IsInf(s.hi[bi], 1) {
					continue
				}
				limit = (s.hi[bi] - s.beta[i]) / delta
			case delta < -epsPivot:
				limit = (s.beta[i] - s.lo[bi]) / -delta
			default:
				continue
			}
			if limit < 0 {
				limit = 0
			}
			if limit < t-epsPivot || (limit < t+epsPivot && blocking >= 0 && bland && bi < s.basis[blocking]) {
				t = limit
				blocking = i
			}
		}
		if math.IsInf(t, 1) {
			return Unbounded
		}
		// Apply the move.
		if t != 0 {
			for i := 0; i < s.m; i++ {
				s.beta[i] -= s.tab[i*s.width+enter] * dir * t
			}
		}
		if blocking == -1 {
			// Bound flip: no basis change, reduced costs unchanged.
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
				s.xval[enter] = s.hi[enter]
			} else {
				s.status[enter] = atLower
				s.xval[enter] = s.lo[enter]
			}
			continue
		}
		r := blocking
		leave := s.basis[r]
		// Which bound did the leaving variable hit?
		if -dir*s.tab[r*s.width+enter] > 0 {
			s.status[leave] = atUpper
			s.xval[leave] = s.hi[leave]
		} else {
			s.status[leave] = atLower
			s.xval[leave] = s.lo[leave]
		}
		s.inBasis[leave] = false
		enterVal := s.xval[enter] + dir*t
		s.inBasis[enter] = true
		s.basis[r] = enter
		s.beta[r] = enterVal
		// Gauss-Jordan elimination on column enter, pivot row r.
		// fault point "lp.pivot": tests corrupt the pivot (NaN/overflow) to
		// exercise the Numerical detection and the caller's fallback ladder.
		piv := fault.Corrupt("lp.pivot", s.tab[r*s.width+enter])
		if math.IsNaN(piv) || math.IsInf(piv, 0) {
			return Numerical
		}
		if math.Abs(piv) < epsPivot {
			// Numerically unusable pivot: refresh and retry next iteration.
			s.refreshBeta()
			s.reducedCosts(cost, cols)
			exact = true
			continue
		}
		exact = false
		nz := s.pivotOn(r, enter, piv, cols)
		// Incremental reduced-cost update: d' = d − d[enter]·rowR (rowR is
		// already the updated pivot row), using the true cost of the leaving
		// variable to restore its entry.
		if dEnter := d[enter]; dEnter != 0 {
			subRow(d, s.row(r), dEnter, nz)
		}
		d[enter] = 0
	}
	return IterLimit
}
