package bounds

import (
	"repro/internal/pb"
)

// xEntry is one coefficient of a reduced row converted to x-space
// (literals ¬x_v replaced by 1−x_v).
type xEntry struct {
	local int // index into xProblem.vars
	coef  float64
}

// xRow is a reduced row in x-space: Σ coef·x ≥ rhs.
type xRow struct {
	engIdx  int
	entries []xEntry
	rhs     float64
}

// xProblem is the x-space view of a reduced problem, shared by the LPR and
// LGR estimators. Its slices are arenas: load rebuilds the view in place, so
// an xProblem held across estimations (LPRState's) stops allocating once it
// has reached the size of the node problems.
type xProblem struct {
	vars []pb.Var // unassigned variables appearing in the rows
	// varIdx[v] is v's local index + 1 (0: v not in vars), direct-addressed
	// by pb.Var; only the entries of vars are ever nonzero.
	varIdx  []int32
	rows    []xRow
	cost    []float64 // per local variable
	entries []xEntry  // backing store of every row's entries

	// lagrangianValue's outputs, reused call to call.
	alpha []float64
	sRows []int
}

// local returns the compact index of v, registering it (with its cost) on
// first sight. Cut installation extends the variable set after load when
// a pooled cut mentions a variable no reduced row does.
func (xp *xProblem) local(v pb.Var, cost []int64) int {
	if i := xp.varIdx[v]; i != 0 {
		return int(i) - 1
	}
	i := len(xp.vars)
	xp.varIdx[v] = int32(i + 1)
	xp.vars = append(xp.vars, v)
	xp.cost = append(xp.cost, float64(cost[v]))
	return i
}

// indexOf returns v's local index, if v is in the problem.
func (xp *xProblem) indexOf(v pb.Var) (int, bool) {
	if int(v) < len(xp.varIdx) {
		if i := xp.varIdx[v]; i != 0 {
			return int(i) - 1, true
		}
	}
	return 0, false
}

// toXSpace converts the reduced rows to x-space over a compact local
// variable indexing, in fresh memory.
func toXSpace(red *Reduced, cost []int64) *xProblem {
	xp := &xProblem{}
	xp.load(red, cost)
	return xp
}

// load rebuilds xp as the x-space view of red, reusing xp's memory.
func (xp *xProblem) load(red *Reduced, cost []int64) {
	for _, v := range xp.vars {
		xp.varIdx[v] = 0
	}
	if len(xp.varIdx) < len(cost) {
		xp.varIdx = make([]int32, len(cost))
	}
	xp.vars = xp.vars[:0]
	xp.cost = xp.cost[:0]
	xp.rows = xp.rows[:0]
	terms := 0
	for _, row := range red.Rows {
		terms += len(row.Terms)
	}
	if cap(xp.entries) < terms {
		// Sized once, exactly: growing by appends would leave up to twice
		// the entries' memory behind for the rest of the solve.
		xp.entries = make([]xEntry, 0, terms)
	}
	xp.entries = xp.entries[:0]
	for _, row := range red.Rows {
		xp.addRow(row.EngIdx, row.Terms, float64(row.Degree), cost)
	}
}

// addRow appends the x-space row Σ terms ≥ rhs (literals ¬x_v replaced by
// 1−x_v), its entries carved from the entries arena.
func (xp *xProblem) addRow(engIdx int, terms []pb.Term, rhs float64, cost []int64) {
	start := len(xp.entries)
	for _, t := range terms {
		j := xp.local(t.Lit.Var(), cost)
		a := float64(t.Coef)
		if t.Lit.IsNeg() {
			// a·(1−x) = a − a·x: coefficient −a, rhs reduced by a.
			xp.entries = append(xp.entries, xEntry{j, -a})
			rhs -= a
		} else {
			xp.entries = append(xp.entries, xEntry{j, a})
		}
	}
	end := len(xp.entries)
	xp.rows = append(xp.rows, xRow{engIdx: engIdx, entries: xp.entries[start:end:end], rhs: rhs})
}

// lagrangianValue computes the weak-duality bound
//
//	L(y) = Σ_{i∈S} y_i·rhs_i + Σ_j min(0, α_j),  α_j = c_j − Σ_{i∈S} y_i·G_ij
//
// for the multipliers y (indexed like xp.rows; entries ≤ eps are treated as
// zero and excluded from S). It returns the bound value, the set S of row
// indices with positive multipliers, and the α vector (for the §4.3 filter
// and the free minimizer x_j = 1 iff α_j < 0). S and α live in xp and are
// overwritten by the next call.
func (xp *xProblem) lagrangianValue(y []float64, eps float64) (val float64, s []int, alpha []float64) {
	alpha = fit(xp.alpha, len(xp.vars))
	xp.alpha = alpha
	copy(alpha, xp.cost)
	s = xp.sRows[:0]
	for i, yi := range y {
		if yi <= eps {
			continue
		}
		s = append(s, i)
		val += yi * xp.rows[i].rhs
		for _, e := range xp.rows[i].entries {
			alpha[e.local] -= yi * e.coef
		}
	}
	xp.sRows = s
	for _, a := range alpha {
		if a < 0 {
			val += a
		}
	}
	return val, s, alpha
}

// alphaFilter implements the §4.3 refinement: for each *assigned* variable
// occurring in the responsible constraints, compute
//
//	α_v = c_v − Σ_{i∈S} y_i·G_iv
//
// using the original constraints' x-space coefficients, and exclude
//
//	v assigned 0 with α_v > margin   (freeing v cannot lower the bound)
//	v assigned 1 with α_v < −margin  (the bound already pays for freeing v)
//
// from the ω_pl explanation. isTrue/isFalse report the assignment; coefAt
// enumerates (variable, x-space coefficient) pairs of original constraint i.
func alphaFilter(
	sRows []int,
	y []float64,
	cost []int64,
	rowVars func(rowIdx int, visit func(v pb.Var, xCoef float64)),
	assignedValue func(v pb.Var) (value bool, assigned bool),
) map[pb.Var]bool {
	const margin = 1e-4
	alphaV := map[pb.Var]float64{}
	for _, i := range sRows {
		yi := y[i]
		if yi <= 0 {
			continue
		}
		rowVars(i, func(v pb.Var, xCoef float64) {
			if _, ok := alphaV[v]; !ok {
				alphaV[v] = float64(cost[v])
			}
			alphaV[v] -= yi * xCoef
		})
	}
	var excluded map[pb.Var]bool
	for v, av := range alphaV {
		val, assigned := assignedValue(v)
		if !assigned {
			continue
		}
		drop := (!val && av > margin) || (val && av < -margin)
		if drop {
			if excluded == nil {
				excluded = map[pb.Var]bool{}
			}
			excluded[v] = true
		}
	}
	return excluded
}
