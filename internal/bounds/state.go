package bounds

import (
	"repro/internal/lp"
	"repro/internal/pb"
)

// LPRState is the persistent warm-start state threaded through consecutive
// LPR estimations. It carries the previous node's LP basis, snapshotted by
// lp.Workspace.SolveWarm under search-stable keys (engine constraint indices
// for y variables, pb.Var for w variables and rows), so the next node's LP —
// usually differing in a handful of columns and rows — starts from a
// near-optimal basis instead of the slack crash.
//
// It also owns the estimator's working memory for one solve: the LP
// workspace (tableau and simplex scratch) and the arenas the x-space problem
// and the dual LP are built in. That memory is created by the first LPR call
// and sized to its LP, follows the node LP's size from then on (see
// lp.Workspace), and is dropped by Release when the solve ends. The basis is
// kept: it is a few slices of keys, and it is all a later solve of the same
// problem needs to start warm.
//
// Soundness is independent of this state: LPR recomputes its bound from the
// returned multipliers via weak duality, and the warm solve falls back to a
// cold solve whenever the mapped basis is poor or numerically suspect. The
// state is therefore a pure accelerator; invalidating it at any point (the
// search does so on restarts, database reductions and estimator demotions)
// costs one cold solve and nothing else.
//
// The zero value is ready to use. Not safe for concurrent use, matching the
// single-threaded search loop: only the solver goroutine that runs the
// estimations reads the counters.
type LPRState struct {
	basis lp.Basis

	// scratch is the per-solve working memory (nil until the first LPR
	// call, and again after Release).
	scratch *lprScratch

	// Counters (sampled by Stats, zeroed by ResetCounters): warm solves,
	// cold solves (first node, invalidations, and fallbacks), and the subset
	// of cold solves where a warm attempt was abandoned mid-flight.
	warmSolves    int64
	coldSolves    int64
	warmFallbacks int64
}

// lprScratch is the memory one LPR estimation works in, reused by the next.
// Everything an estimation hands out of it (the Solution slices, FracX) is
// valid until the next estimation.
type lprScratch struct {
	ws   lp.Workspace
	xp   xProblem
	dual dualLP
	inst cutInstall
	// fracX is Result.FracX, cleared and refilled by every estimation.
	fracX map[pb.Var]float64
	// keptX and keptDual hold the last good solution across a separation
	// round's re-solve, which overwrites the workspace's solution buffers.
	keptX, keptDual []float64
}

// work returns the state's scratch memory, creating it on first use.
func (st *LPRState) work() *lprScratch {
	if st.scratch == nil {
		st.scratch = &lprScratch{}
	}
	return st.scratch
}

// Invalidate drops the stored basis: the next LPR call solves cold. Called
// by the search when the node-to-node continuity the basis assumes is broken
// (restart, ReduceDB, estimator demotion) or after a hard LPR failure.
func (st *LPRState) Invalidate() {
	if st != nil {
		st.basis.Reset()
	}
}

// Release drops the working memory (LP workspace and arenas) and keeps the
// basis and counters. The search calls it when a solve ends, so a state
// that outlives the solve — the serving layer's session cache — holds only
// what a warm start needs. Nil-safe; the next LPR call re-creates the
// memory.
func (st *LPRState) Release() {
	if st != nil {
		st.scratch = nil
	}
}

// ResetCounters zeroes the warm/cold/fallback counts and keeps the basis.
// The search calls it when a solve starts, so a state reused across solves
// reports each solve's own counts.
func (st *LPRState) ResetCounters() {
	st.warmSolves, st.coldSolves, st.warmFallbacks = 0, 0, 0
}

// HasBasis reports whether a basis is currently stored (diagnostics only).
func (st *LPRState) HasBasis() bool { return st != nil && st.basis.Len() > 0 }

// WarmSolves returns the number of LP solves that reused a previous basis.
func (st *LPRState) WarmSolves() int64 { return st.warmSolves }

// ColdSolves returns the number of from-scratch LP solves.
func (st *LPRState) ColdSolves() int64 { return st.coldSolves }

// WarmFallbacks returns the number of cold solves that began as warm
// attempts (poor mapping, corrupted pivots, numerical trouble).
func (st *LPRState) WarmFallbacks() int64 { return st.warmFallbacks }

// fit returns buf resized to length n, reusing its memory when that is
// large enough and allocating exactly n otherwise. The arenas only grow,
// and without headroom: they hold the LP's nonzeros, not its tableau, they
// live as long as the solve, and their largest size is the root LP's.
func fit[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n)
}
