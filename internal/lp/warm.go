package lp

import (
	"fmt"
	"math"

	"repro/internal/fault"
)

// This file implements warm-started re-solving for sequences of related LPs
// (§3.1 usage pattern: one LP relaxation per search node, with consecutive
// nodes differing in a handful of assigned variables). The previous optimal
// basis is snapshotted under caller-stable integer identities, mapped onto
// the next problem's columns and rows, installed by a Gauss-Jordan crash,
// repaired to primal feasibility by a dual simplex pass, and polished by the
// ordinary primal simplex. Any step that fails — too few identities survive
// the node transition, a corrupted pivot, numerical trouble, a stalled dual
// pass — abandons the warm attempt and falls back to the classical cold
// solve, so warm starting is strictly an acceleration: it can never change
// the set of statuses the caller observes, only how fast Optimal is reached.
//
// Soundness note. The caller (bounds.LPR) never trusts the objective of a
// warm solution directly: it recomputes the bound from the returned duals via
// the weak-duality Lagrangian formula, which is valid for any y ≥ 0. A stale
// or badly mapped basis therefore yields a weaker bound, never an unsound
// one.

// Basis is a snapshot of a simplex basis under the caller's stable keys.
// It is produced by a SolveWarm call and fed to the next one; callers never
// inspect it. A Basis holds no tableau, so it is cheap to keep beyond the
// Workspace that produced it (the serving layer's session cache keeps one
// per cached problem).
type Basis struct {
	// Aligned per snapshotted row: the row's key, and the key of its basic
	// variable — a structural variable key, or, when surplus is set, the key
	// of the row whose surplus variable is basic.
	rowKey  []int64
	basic   []int64
	surplus []bool
	// upper lists the structural variable keys nonbasic at their upper bound
	// (empty when all upper bounds are infinite, as in the LPR dual).
	upper []int64
}

// Len returns the number of snapshotted basis rows (diagnostic only).
func (b *Basis) Len() int {
	if b == nil {
		return 0
	}
	return len(b.rowKey)
}

// Reset empties the basis, keeping its memory: the next solve from it is
// cold.
func (b *Basis) Reset() {
	if b == nil {
		return
	}
	b.rowKey = b.rowKey[:0]
	b.basic = b.basic[:0]
	b.surplus = b.surplus[:0]
	b.upper = b.upper[:0]
}

func (b *Basis) add(rowKey, basic int64, surplus bool) {
	b.rowKey = append(b.rowKey, rowKey)
	b.basic = append(b.basic, basic)
	b.surplus = append(b.surplus, surplus)
}

// clone returns an independent copy of b (nil-safe: a nil b clones to an
// empty Basis).
func (b *Basis) clone() *Basis {
	c := &Basis{}
	if b != nil {
		c.rowKey = append(c.rowKey, b.rowKey...)
		c.basic = append(c.basic, b.basic...)
		c.surplus = append(c.surplus, b.surplus...)
		c.upper = append(c.upper, b.upper...)
	}
	return c
}

// SolveWarm solves p, reusing prev (a Basis returned by an earlier SolveWarm
// call on a related problem) as the starting basis when possible. varKeys[j]
// and rowKeys[i] are caller-chosen stable identities for column j and row i —
// the same logical variable/constraint must receive the same key across
// calls, and keys must be unique within a call. prev == nil (or an
// unmappable basis) degrades to the cold Solve path. The returned Basis
// snapshots the final state for the next call (nil when there is none; a
// copy of prev when the deadline cut the solve short before it had one, see
// Workspace.SolveWarm). Solution.Warm reports whether the previous basis
// was actually reused; a caller that passed prev != nil and observes
// Warm == false has witnessed a cold fallback.
//
// SolveWarm leaves prev unchanged and builds its tableau in a fresh
// Workspace; a caller solving one LP after another should hold a Workspace
// and a Basis and call Workspace.SolveWarm instead.
func SolveWarm(p *Problem, varKeys, rowKeys []int64, prev *Basis) (Solution, *Basis, error) {
	next := prev.clone()
	var w Workspace
	sol, err := w.SolveWarm(p, varKeys, rowKeys, next)
	if err != nil {
		return Solution{}, nil, err
	}
	if next.Len() == 0 {
		next = nil
	}
	return sol, next, nil
}

// SolveWarm solves p in the workspace, starting from bas when it maps onto
// p, and overwrites bas with the final basis (see the package-level
// SolveWarm for the key contract). bas may be nil (always cold, no
// snapshot). A solve that produces no basis empties bas — except one cut by
// its deadline or iteration cap before any basis existed, which leaves bas
// as it was, since nothing about it was refuted.
//
// Problem.Deadline is checked before the workspace is sized and polled
// while the tableau is built and the basis is installed, not only between
// pivots: a deadline that has already passed returns IterLimit at once.
//
// The returned Solution aliases the workspace (see Workspace).
func (w *Workspace) SolveWarm(p *Problem, varKeys, rowKeys []int64, bas *Basis) (Solution, error) {
	if len(varKeys) != p.NumVars {
		return Solution{}, fmt.Errorf("lp: len(varKeys)=%d != NumVars=%d", len(varKeys), p.NumVars)
	}
	if len(rowKeys) != len(p.Rows) {
		return Solution{}, fmt.Errorf("lp: len(rowKeys)=%d != len(Rows)=%d", len(rowKeys), len(p.Rows))
	}
	ok, err := validate(p)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		bas.Reset()
		return Solution{Status: Infeasible}, nil
	}
	if pastDeadline(p.Deadline) {
		return Solution{Status: IterLimit}, nil
	}
	if bas.Len() == 0 || len(p.Rows) == 0 {
		return w.cold(p, varKeys, rowKeys, bas), nil
	}

	if !w.buildWarm(p) {
		return Solution{Status: IterLimit}, nil
	}
	switch w.crashBasis(p, varKeys, rowKeys, bas) {
	case crashDeclined:
		return w.cold(p, varKeys, rowKeys, bas), nil
	case crashExpired:
		return Solution{Status: IterLimit}, nil
	}
	s := &w.s
	s.refreshBeta()
	if s.corrupted() {
		return w.cold(p, varKeys, rowKeys, bas), nil
	}
	copy(s.cost, p.Cost)
	// Dual pass: restore primal feasibility while (approximately) preserving
	// dual feasibility. Anything but Optimal means the mapped basis was not
	// worth keeping.
	st, dReady := s.runDual(s.cost)
	if st != Optimal {
		return w.cold(p, varKeys, rowKeys, bas), nil
	}
	// Polish with the true costs: the dual pass may have shifted costs to
	// stay well-defined, and the crash may have left mild dual
	// infeasibility; the primal simplex finishes from a primal-feasible
	// basis that is typically a handful of pivots from optimal.
	st = s.run(s.cost, dReady)
	if st == Unbounded || st == Numerical {
		return w.cold(p, varKeys, rowKeys, bas), nil
	}
	sol := w.extractSolution(p, st)
	if sol.Status == Numerical {
		return w.cold(p, varKeys, rowKeys, bas), nil
	}
	sol.Warm = true
	s.snapshot(varKeys, rowKeys, bas)
	return sol, nil
}

// cold runs the two-phase solve and snapshots its basis into bas.
func (w *Workspace) cold(p *Problem, varKeys, rowKeys []int64, bas *Basis) Solution {
	sol, usable := w.solveCold(p)
	switch {
	case usable && (sol.Status == Optimal || sol.Status == IterLimit):
		w.s.snapshot(varKeys, rowKeys, bas)
	case sol.Status == IterLimit:
		// Cut short before a basis existed: bas still describes the last
		// solve that produced one.
	default:
		bas.Reset()
	}
	return sol
}

// buildWarm builds the working state with rows in their natural
// (non-negated) orientation — A_i·x − s_i = b_i with the surplus column −1 —
// and artificials locked at zero from the start. Unlike the cold slack-basis
// crash, no row is negated: the basis comes from the previous solve, not
// from the sign of the initial residual. The dual-extraction identity
// d_surplus_i = y_i holds in this orientation too (the stored surplus column
// is B⁻¹·(−e_i), so −cB·B⁻¹·(−e_i) = y_i).
//
// It also records, per structural column, the only row holding its entries
// (unitRow; −1 for several rows, −2 for none), which lets the crash install
// a still-unit column without searching or sweeping the tableau, and marks
// the rows whose nonzeros are known without a scan (pristine). Returns false
// when the deadline passed during the build.
func (w *Workspace) buildWarm(p *Problem) bool {
	s := w.prepare(p, 0)
	n, m := s.n, s.m
	// Artificials stay locked at zero: the crash never needs them feasible,
	// only pivotable as a row's last fallback, where the column is known to
	// be the unit vector of its row (see crashBasis). Locked, they never
	// enter the basis, and nothing reads their columns afterwards, so the
	// tableau does not hold them at all.
	for j := n + m; j < s.nTot; j++ {
		s.hi[j] = 0
	}
	fit(&w.unitRow, n, w.shrink)
	unitRow := w.unitRow
	for j := range unitRow {
		unitRow[j] = -2
	}
	fit(&w.pristine, m, w.shrink)
	for i, r := range p.Rows {
		if i%deadlineStride == 0 && s.expired() {
			return false
		}
		row := s.row(i)
		// A row is pristine while its nonzeros are exactly its entries plus
		// its surplus; a zero or repeated entry breaks that.
		w.pristine[i] = true
		for _, e := range r.Entries {
			if e.Coef == 0 || row[e.Var] != 0 {
				w.pristine[i] = false
			}
			row[e.Var] += e.Coef
			if u := unitRow[e.Var]; u == -2 {
				unitRow[e.Var] = int32(i)
			} else if u != int32(i) {
				unitRow[e.Var] = -1
			}
		}
		row[n+i] = -1.0 // surplus
		s.rhsB[i] = r.RHS
	}
	return true
}

// crashOutcome is the verdict of crashBasis.
type crashOutcome uint8

const (
	crashInstalled crashOutcome = iota // a basis is installed
	crashDeclined                      // too little of prev maps: solve cold
	crashExpired                       // the deadline passed mid-crash
)

// crashBasis maps prev onto the current problem and installs it by
// Gauss-Jordan pivots with partial pivoting. A basis is a column SET —
// which row a basic column ends up attached to is irrelevant to
// feasibility — so rather than tying each previous column to its previous
// row (whose pivot entry may have become zero in fixed-order elimination
// even though the set is nonsingular), the crash pivots each mapped column
// in whichever remaining row has the largest entry. For a nonsingular
// mapped set in exact arithmetic every column then finds a pivot, so on an
// unchanged problem the crash reconstructs the previous basis exactly and
// the dual pass confirms feasibility with zero iterations.
//
// Unit columns. A column whose entries all sit in one row r of the built
// tableau stays a unit vector in row r for as long as r has not been a
// pivot row: each pivot subtracts multiples of its own row, whose entry in
// that column is zero. Such a column — the LPR dual's w_j columns and every
// surplus column, which fill most of its bases — is installed by scaling
// row r alone: r is the only candidate row and no other row needs
// elimination, exactly what the general search and sweep would conclude.
//
// Rows left unpivoted (unmapped rows, dependent or corrupted columns) fall
// back to their own surplus, then their own artificial. Both fallbacks are
// unit columns of unit magnitude: column n+r (resp. n+m+r) is nonzero only
// in row r of the initial system, and while row r remains unpivoted it is
// never used as a pivot row, so tab[r][n+r] is still exactly −1 (and the
// artificial's entry, which the warm tableau does not store, exactly +1)
// when row r's fallback turn comes.
//
// The crash declines (cold fallback) when fewer than half the rows map, in
// which case installing the remnant would cost more pivoting than it saves.
//
// fault point "lp.warmcrash": tests corrupt mapped pivot values to force the
// per-column fallback and, en masse, the cold fallback.
func (w *Workspace) crashBasis(p *Problem, varKeys, rowKeys []int64, prev *Basis) crashOutcome {
	s := &w.s
	n, m := s.n, s.m
	for j, k := range varKeys {
		w.varCol.set(k, j)
	}
	for i, k := range rowKeys {
		w.rowAt.set(k, i)
	}
	for k, rk := range prev.rowKey {
		w.prevAt.set(rk, k)
	}
	// The desired basic column set, deduplicated via inBasis as a scratch
	// "seen" marker (reset below before the pivots mark real basis members).
	cols := s.cols[:0]
	for i := 0; i < m; i++ {
		k, ok := w.prevAt.get(rowKeys[i])
		if !ok {
			continue
		}
		c := -1
		if prev.surplus[k] {
			if r, ok := w.rowAt.get(prev.basic[k]); ok {
				c = n + r
			}
		} else if j, ok := w.varCol.get(prev.basic[k]); ok {
			c = j
		}
		if c >= 0 && !s.inBasis[c] {
			s.inBasis[c] = true
			cols = append(cols, c)
		}
	}
	for _, c := range cols {
		s.inBasis[c] = false
	}
	declined := 2*len(cols) < m // mapping too poor: the crash would mostly build a slack basis anyway
	if !declined {
		// Restore nonbasic-at-upper statuses (no-op when upper bounds are
		// infinite, as in the LPR dual LP).
		for _, k := range prev.upper {
			if j, ok := w.varCol.get(k); ok && !math.IsInf(s.hi[j], 1) {
				s.status[j] = atUpper
				s.xval[j] = s.hi[j]
			}
		}
	}
	w.prevAt.unset(prev.rowKey)
	w.rowAt.unset(rowKeys)
	w.varCol.unset(varKeys)
	if declined {
		return crashDeclined
	}

	fit(&w.pivoted, m, w.shrink)
	pivoted := w.pivoted
	clear(pivoted)
	step := 0
	for _, col := range cols {
		if step%deadlineStride == 0 && s.expired() {
			return crashExpired
		}
		step++
		home := w.homeRow(col)
		best := -1
		if home >= 0 && !pivoted[home] {
			if math.Abs(s.tab[home*s.width+col]) > epsPivot {
				best = home
			}
		} else if home != -2 {
			bestAbs := epsPivot
			for i := 0; i < m; i++ {
				if pivoted[i] {
					continue
				}
				if a := math.Abs(s.tab[i*s.width+col]); a > bestAbs {
					best, bestAbs = i, a
				}
			}
		}
		if best < 0 {
			continue // dependent or vanished column: its row falls back below
		}
		piv := fault.Corrupt("lp.warmcrash", s.tab[best*s.width+col])
		if math.IsNaN(piv) || math.IsInf(piv, 0) || math.Abs(piv) < epsPivot {
			continue
		}
		w.crashPivot(p, best, col, piv, best != home)
		pivoted[best] = true
	}
	for r := 0; r < m; r++ {
		if pivoted[r] {
			continue
		}
		if step%deadlineStride == 0 && s.expired() {
			return crashExpired
		}
		step++
		if !s.inBasis[n+r] {
			w.crashPivot(p, r, n+r, s.tab[r*s.width+n+r], false) // exactly −1 (see above)
		} else {
			// The artificial's column is +1 in row r and zero elsewhere: it
			// becomes basic without any tableau work (and has no tableau
			// column, see buildWarm).
			s.basis[r] = n + m + r
			s.inBasis[n+m+r] = true
		}
	}
	return crashInstalled
}

// homeRow is the only row holding column col's entries in the built
// tableau: −1 when several rows do, −2 when none does.
func (w *Workspace) homeRow(col int) int {
	if col < w.s.n {
		return int(w.unitRow[col])
	}
	return col - w.s.n // a surplus column
}

// crashPivot makes col basic in row r, touching only row r's nonzero
// columns: for a row still as built (pristine) those are its entries plus
// its surplus, otherwise a scan of the row finds them. sweep
// false skips the elimination, for a column known to be zero outside row r.
func (w *Workspace) crashPivot(p *Problem, r, col int, piv float64, sweep bool) {
	s := &w.s
	row := s.row(r)
	nz := s.nz[:0]
	if w.pristine[r] {
		for _, e := range p.Rows[r].Entries {
			nz = append(nz, e.Var)
		}
		nz = append(nz, s.n+r)
	} else {
		for j, v := range row {
			if v != 0 {
				nz = append(nz, j)
			}
		}
	}
	if inv := 1.0 / piv; inv != 1.0 {
		scaleRow(row, inv, nz)
		s.rhsB[r] *= inv
	}
	if sweep {
		s.eliminate(r, col, nz, w.pristine)
	}
	s.basis[r] = col
	s.inBasis[col] = true
}

// runDual restores primal feasibility from a dual-reasonable basis by dual
// simplex steps: pick the most bound-violating basic variable, drive it to
// the violated bound, and bring in the nonbasic column that preserves dual
// feasibility at minimal reduced-cost ratio. Dual feasibility of the start
// is manufactured where needed by cost shifting (raising the working cost of
// a wrong-signed nonbasic column just past zero); shifts only distort the
// path, not the outcome, because the caller re-runs the primal simplex with
// the true costs afterwards. Returns Optimal when every basic variable is
// within bounds, Infeasible when a violated row has no eligible entering
// column (primal infeasible or hopeless mapping), IterLimit/Numerical on
// budget exhaustion or corruption — everything but Optimal sends the caller
// to the cold path. On Optimal, dReady reports that no cost was ever
// shifted, so s.d holds the exact reduced costs of cost (see run).
func (s *simplex) runDual(cost []float64) (st Status, dReady bool) {
	cols := s.activeCols()
	wcost := s.wcost
	copy(wcost, cost)
	d := s.d
	shifted := false
	shift := func() {
		for _, j := range cols {
			if s.inBasis[j] {
				continue
			}
			if s.status[j] == atLower && d[j] < -epsCost {
				wcost[j] += -d[j] + epsCost
				d[j] = epsCost
				shifted = true
			} else if s.status[j] == atUpper && d[j] > epsCost {
				wcost[j] += -epsCost - d[j]
				d[j] = -epsCost
				shifted = true
			}
		}
	}
	s.reducedCosts(wcost, cols)
	shift()

	for ; s.iters < s.maxIter; s.iters++ {
		if s.iterExpired() {
			return IterLimit, false
		}
		if s.iters%256 == 255 {
			s.refreshBeta()
			if s.corrupted() {
				return Numerical, false
			}
		}
		// Leaving row: most violated basic bound.
		r := -1
		worst := epsBound
		for i := 0; i < s.m; i++ {
			bi := s.basis[i]
			if v := s.lo[bi] - s.beta[i]; v > worst {
				worst = v
				r = i
			}
			if !math.IsInf(s.hi[bi], 1) {
				if v := s.beta[i] - s.hi[bi]; v > worst {
					worst = v
					r = i
				}
			}
		}
		if r == -1 {
			return Optimal, !shifted // primal feasible
		}
		leave := s.basis[r]
		below := s.beta[r] < s.lo[leave]
		target := s.lo[leave]
		if !below {
			target = s.hi[leave]
		}
		// Entering column: dual ratio test. Moving nonbasic j off its bound
		// by t (direction dir_j) changes beta[r] by −α_j·dir_j·t; we need it
		// to move toward target. Among eligible columns, minimize the
		// reduced-cost ratio |d_j|/|α_j| (preserves dual feasibility), with
		// ties broken toward the largest pivot magnitude for stability.
		enter := -1
		bestRatio := math.Inf(1)
		bestAbs := 0.0
		row := s.row(r)
		for _, j := range cols {
			if s.inBasis[j] || s.hi[j]-s.lo[j] < epsBound {
				continue
			}
			a := row[j]
			if math.Abs(a) < epsPivot {
				continue
			}
			var ok bool
			if s.status[j] == atLower { // dir +1: Δbeta[r] has sign −a
				ok = (a < 0) == below
			} else { // dir −1: Δbeta[r] has sign +a
				ok = (a > 0) == below
			}
			if !ok {
				continue
			}
			df := d[j]
			if s.status[j] == atUpper {
				df = -df
			}
			if df < 0 {
				df = 0 // numerically wrong-signed: treat as degenerate
			}
			abs := math.Abs(a)
			ratio := df / abs
			if ratio < bestRatio-epsPivot || (ratio < bestRatio+epsPivot && abs > bestAbs) {
				bestRatio = ratio
				bestAbs = abs
				enter = j
			}
		}
		if enter == -1 {
			return Infeasible, false // dual unbounded: no point salvaging this basis
		}
		piv := fault.Corrupt("lp.pivot", row[enter])
		if math.IsNaN(piv) || math.IsInf(piv, 0) {
			return Numerical, false
		}
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1.0
		}
		t := (target - s.beta[r]) / (-piv * dir)
		if t < 0 {
			t = 0 // numerical noise; pivot is still the right basis change
		}
		for i := 0; i < s.m; i++ {
			s.beta[i] -= s.tab[i*s.width+enter] * dir * t
		}
		if below {
			s.status[leave] = atLower
			s.xval[leave] = s.lo[leave]
		} else {
			s.status[leave] = atUpper
			s.xval[leave] = s.hi[leave]
		}
		s.inBasis[leave] = false
		enterVal := s.xval[enter] + dir*t
		s.inBasis[enter] = true
		s.basis[r] = enter
		s.beta[r] = enterVal
		s.pivotOn(r, enter, piv, cols)
		// Full recompute per iteration: dual repair runs for a handful of
		// steps at a typical node transition, so simplicity beats the
		// incremental update here; shift keeps the next ratio test
		// well-defined against drift.
		s.reducedCosts(wcost, cols)
		shift()
	}
	return IterLimit, false
}

// snapshot records the final basis into b under the caller's stable keys
// for reuse by the next SolveWarm call. Rows whose basic variable is an
// artificial (possible only on degenerate cold solves) are simply omitted —
// the crash treats them as unmapped and installs their surplus.
func (s *simplex) snapshot(varKeys, rowKeys []int64, b *Basis) {
	if b == nil {
		return
	}
	b.Reset()
	for i := 0; i < s.m; i++ {
		bi := s.basis[i]
		switch {
		case bi < s.n:
			b.add(rowKeys[i], varKeys[bi], false)
		case bi < s.n+s.m:
			b.add(rowKeys[i], rowKeys[bi-s.n], true)
		}
	}
	for j := 0; j < s.n; j++ {
		if !s.inBasis[j] && s.status[j] == atUpper {
			b.upper = append(b.upper, varKeys[j])
		}
	}
}
