// Package baseline packages the two published PBO solvers the paper compares
// bsolo against, reconstructed on top of the shared CDCL engine (see the
// substitution table in DESIGN.md):
//
//   - PBS (Aloul et al. [2]): SAT-based linear search on the cost function
//     with clause learning — no lower bounding, no preprocessing, restarts
//     only when a new solution tightens the cost constraint.
//   - Galena (Chai & Kuehlmann [4]): the same linear-search organization but
//     with pseudo-Boolean-aware strengthening — probing-based preprocessing,
//     implication strengthening, clause subsumption — and Luby restarts.
//
// Both add the eq. 10 constraint Σ c_j·x_j ≤ upper−1 after each solution and
// restart, so the search is the classic "next solution must be cheaper"
// linear sweep of [3].
package baseline

import (
	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/preprocess"
)

// PBS returns the options of the PBS-style linear-search solver. Callers add
// their limits and run them like any other member (a harness column is a
// one-member portfolio race).
func PBS() core.Options {
	return core.Options{
		Strategy:    core.StrategyLinearSearch,
		LowerBound:  core.LBNone,
		RestartBase: -1, // no Luby restarts; restart only on new solutions
	}
}

// Galena returns the options of the Galena-style linear-search solver. Run
// them on GalenaPreprocess's output: the preprocessing is part of the solver,
// and its time counts against the run's limit.
func Galena() core.Options {
	return core.Options{
		Strategy:   core.StrategyLinearSearch,
		LowerBound: core.LBNone,
		PBLearning: true, // Galena's distinguishing cutting-plane learning
	}
}

// GalenaPreprocess applies Galena's probing, implication strengthening and
// subsumption and returns the problem to solve (same variable numbering).
// When probing proves the instance infeasible the result carries an explicit
// contradiction, so the search reports UNSAT at once; a preprocessing
// failure falls back to the raw instance.
func GalenaPreprocess(p *pb.Problem) *pb.Problem {
	pre, _, err := preprocess.Apply(p, preprocess.Options{
		Simplify:     true,
		MaxProbeVars: 2000,
	})
	if err != nil {
		return p
	}
	return pre
}

// Bsolo returns the options of the paper's solver with the given lower-bound
// method and the §4–§5 techniques enabled (the Table 1 bsolo columns).
func Bsolo(method core.Method) core.Options {
	return core.Options{
		Strategy:             core.StrategyBranchBound,
		LowerBound:           method,
		CardinalityInference: true,
	}
}
