// Package preprocess implements the preprocessing techniques the paper's
// experimental section mentions (§6): probing for necessary assignments and
// constraint strengthening in the style of Savelsbergh [14] and Dixon &
// Ginsberg [6], plus the covering-style simplification (clause subsumption)
// used on the synthesis benchmark set [7,15].
//
// All transformations are solution-preserving:
//
//   - Failed-literal probing: assigning l and propagating to a conflict
//     proves ¬l; the literal is fixed with a unit constraint.
//   - Implication strengthening: if propagating l forces q, the binary
//     clause ¬l ∨ q is entailed; adding it strengthens unit propagation
//     (the engine's counter propagation does not otherwise see the
//     implication until l is assigned).
//   - Subsumption: a clause whose literal set is a subset of another
//     clause's implies it; the superset clause is removed. General PB rows
//     are left untouched.
package preprocess

import (
	"fmt"
	"sort"

	"repro/internal/cover"
	"repro/internal/cuts"
	"repro/internal/engine"
	"repro/internal/pb"
)

// Options selects preprocessing steps. The zero value applies nothing.
type Options struct {
	// Simplify removes clauses subsumed by shorter ones, then probes:
	// failed literals fix their negation (necessary assignments), and the
	// implications the other probes discover are added as binary clauses,
	// at most 4× the constraint count of them.
	Simplify bool
	// MaxProbeVars caps how many variables are probed (0 = all). Variables
	// are probed in order of descending occurrence count.
	MaxProbeVars int
	// CoverReductions applies the covering-problem reductions of
	// internal/cover (essential columns, row/column dominance) to the unate
	// part of the instance before probing. Optimum-preserving but not
	// solution-set-preserving (column dominance may exclude some optima).
	CoverReductions bool
	// CardinalityDetect rewrites input rows that are semantically
	// cardinality constraints (identical solution set) to unit coefficients
	// — e.g. 3x+3y+2z ≥ 5 becomes x+y+z ≥ 2. Solution-set-preserving; the
	// unit form is cheaper to propagate and is recognized exactly by the LPR
	// clique-cut separator.
	CardinalityDetect bool
}

// Info reports what preprocessing did.
type Info struct {
	FixedLiterals   int
	Implications    int
	SubsumedRemoved int
	// CardinalityNormalized counts rows rewritten to unit coefficients by
	// CardinalityDetect.
	CardinalityNormalized int
	ProvedUnsat           bool
	// Cover reports the covering-reduction statistics when CoverReductions
	// was enabled.
	Cover cover.Info
}

// Apply returns a preprocessed copy of p (same variable numbering; solutions
// map 1:1) together with statistics. When the instance is proved
// unsatisfiable during probing, Info.ProvedUnsat is set and the returned
// problem contains an explicit contradiction so downstream solvers agree.
func Apply(p *pb.Problem, opt Options) (*pb.Problem, Info, error) {
	out := p.Clone()
	var info Info

	if opt.CoverReductions {
		reduced, cinfo, err := cover.Reduce(out)
		if err != nil {
			return nil, info, err
		}
		out = reduced
		info.Cover = cinfo
	}

	if opt.CardinalityDetect {
		// Before subsumption: normalized degree-1 rows become clauses and
		// join the subsumption pass.
		info.CardinalityNormalized = normalizeCardinalities(out)
	}

	if opt.Simplify {
		info.SubsumedRemoved = subsume(out)
		if err := probe(out, opt.MaxProbeVars, &info); err != nil {
			return nil, info, err
		}
	}
	return out, info, nil
}

// normalizeCardinalities rewrites semantically-cardinality rows in place to
// unit coefficients (cuts.DetectCardinality certifies the solution set is
// unchanged). Returns the number of rows rewritten. Already-unit rows are
// left alone.
func normalizeCardinalities(p *pb.Problem) int {
	n := 0
	for _, c := range p.Constraints {
		unit := true
		for _, t := range c.Terms {
			if t.Coef != 1 {
				unit = false
				break
			}
		}
		if unit {
			continue
		}
		need, ok := cuts.DetectCardinality(c.Terms, c.Degree)
		if !ok {
			continue
		}
		for i := range c.Terms {
			c.Terms[i].Coef = 1
		}
		c.Degree = int64(need)
		n++
	}
	return n
}

// subsume removes clauses whose literal set is a superset of another
// clause's. Returns the number of removed constraints.
func subsume(p *pb.Problem) int {
	type clauseInfo struct {
		idx  int
		lits map[pb.Lit]bool
	}
	var clauses []clauseInfo
	for i, c := range p.Constraints {
		if c.Kind() != pb.KindClause {
			continue
		}
		m := make(map[pb.Lit]bool, len(c.Terms))
		for _, t := range c.Terms {
			m[t.Lit] = true
		}
		clauses = append(clauses, clauseInfo{i, m})
	}
	sort.Slice(clauses, func(a, b int) bool { return len(clauses[a].lits) < len(clauses[b].lits) })
	removed := map[int]bool{}
	for i := 0; i < len(clauses); i++ {
		if removed[clauses[i].idx] {
			continue
		}
		small := clauses[i]
		for j := i + 1; j < len(clauses); j++ {
			big := clauses[j]
			if removed[big.idx] || len(big.lits) <= len(small.lits) {
				continue
			}
			subset := true
			for l := range small.lits {
				if !big.lits[l] {
					subset = false
					break
				}
			}
			if subset {
				removed[big.idx] = true
			}
		}
	}
	if len(removed) == 0 {
		return 0
	}
	var kept []*pb.Constraint
	for i, c := range p.Constraints {
		if !removed[i] {
			kept = append(kept, c)
		}
	}
	p.Constraints = kept
	return len(removed)
}

// probe runs failed-literal probing and implication strengthening.
func probe(p *pb.Problem, maxProbeVars int, info *Info) error {
	maxImpl := 4 * len(p.Constraints)
	e := engine.New(p)
	if e.SeedUnits() < 0 || e.Propagate() >= 0 {
		info.ProvedUnsat = true
		markUnsat(p)
		return nil
	}

	type implication struct{ from, to pb.Lit }
	var impls []implication
	fixed, ok := probeLiterals(e, probeOrder(p, maxProbeVars), func(lit pb.Lit, from int) {
		for i := from; i < e.TrailSize() && len(impls) < maxImpl; i++ {
			impls = append(impls, implication{lit, e.TrailLit(i)})
		}
	})
	info.FixedLiterals = len(fixed)
	if !ok {
		info.ProvedUnsat = true
		markUnsat(p)
		return nil
	}

	for _, l := range fixed {
		if err := p.AddClause(l); err != nil {
			return fmt.Errorf("preprocess: fixing literal: %w", err)
		}
	}
	for _, im := range impls {
		if err := p.AddClause(im.from.Neg(), im.to); err != nil {
			return fmt.Errorf("preprocess: implication clause: %w", err)
		}
		info.Implications++
	}
	return nil
}

// probeLiterals decides each unassigned variable of order both ways on e,
// which must be at a conflict-free root fixpoint. A literal whose
// propagation conflicts has failed: its negation is fixed at the root,
// propagated, and returned in fixed. After each literal that does not fail,
// implied (when non-nil) runs before the backtrack with the decision and
// the trail position just past it, where the literals it implies start. ok
// is false when a fixed negation conflicts: the instance is unsatisfiable.
func probeLiterals(e *engine.Engine, order []pb.Var, implied func(lit pb.Lit, from int)) (fixed []pb.Lit, ok bool) {
	for _, v := range order {
		for _, lit := range []pb.Lit{pb.PosLit(v), pb.NegLit(v)} {
			if e.Value(v) != engine.Unassigned {
				break
			}
			base := e.TrailSize()
			e.Decide(lit)
			if e.Propagate() < 0 {
				if implied != nil {
					implied(lit, base+1)
				}
				e.BacktrackTo(0)
				continue
			}
			e.BacktrackTo(0)
			if !e.Enqueue(lit.Neg(), engine.NoReason) || e.Propagate() >= 0 {
				return fixed, false
			}
			fixed = append(fixed, lit.Neg())
		}
	}
	return fixed, true
}

// probeOrder returns variables ordered by descending occurrence count,
// truncated to maxVars when it is positive.
func probeOrder(p *pb.Problem, maxVars int) []pb.Var {
	occ := make([]int, p.NumVars)
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			occ[t.Lit.Var()]++
		}
	}
	order := make([]pb.Var, p.NumVars)
	for v := range order {
		order[v] = pb.Var(v)
	}
	sort.Slice(order, func(a, b int) bool {
		if occ[order[a]] != occ[order[b]] {
			return occ[order[a]] > occ[order[b]]
		}
		return order[a] < order[b]
	})
	if maxVars > 0 && len(order) > maxVars {
		order = order[:maxVars]
	}
	return order
}

// markUnsat appends an explicit contradiction (empty constraint of positive
// degree is not expressible through AddConstraint, so use x ∧ ¬x on var 0,
// creating a variable when the problem has none).
func markUnsat(p *pb.Problem) {
	if p.NumVars == 0 {
		p.AddVar(0)
	}
	_ = p.AddClause(pb.PosLit(0))
	_ = p.AddClause(pb.NegLit(0))
}
