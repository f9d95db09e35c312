package lp

import (
	"math"
	"time"
)

// Workspace is the reusable memory of a sequence of solves: one flat
// row-major tableau plus every scratch slice the cold build, the warm build,
// the basis crash, both simplex loops, the drift refresh and the solution
// extraction need. A search that solves one LP per node owns one Workspace
// and passes it to every call, so a node costs its arithmetic and not a
// rebuild of the solver's memory.
//
// Each buffer is sized to the current problem on every solve: it is reused
// when it is large enough, and reallocated, with headroom, when it is too
// small. The workspace shrinks once the tableau has needed less than a
// quarter of its buffer for shrinkAfter solves in a row, so one large LP
// does not pin its memory for the rest of a search whose node LPs are
// small, while a dip of a few nodes (a backjump into a small subtree, soon
// left again) does not cost a reallocation on the way down and another on
// the way back up. Node LPs along a search vary by two orders of magnitude
// in tableau size (from tens of cells deep in the tree to 10^5 near the
// root on the Table 1 rows), so both the headroom and the delay matter:
// sized exactly and shrunk at once, the workspace reallocated its tableau
// at about a third of all LPR calls.
//
// The Solution a Workspace method returns aliases the workspace: its X,
// Slack and Dual slices stay valid until the next solve on the same
// workspace. The zero value is ready to use. Not safe for concurrent use.
type Workspace struct {
	s simplex

	// Solution buffers handed out by extractSolution.
	x, slack, dual []float64
	// cost1 is the phase-1 cost vector of the cold path.
	cost1 []float64

	// Crash scratch: pivoted marks rows already used as pivot rows; unitRow
	// is the only row holding a nonzero of each column in the freshly built
	// tableau (−1 when the column has several, see crashBasis).
	pivoted  []bool
	unitRow  []int32
	pristine []bool // per row: untouched by any crash elimination so far
	// Key → position indexes of the crash: the current problem's columns
	// and rows by caller key, and the previous basis's entries by row key.
	varCol, rowAt, prevAt keyIndex

	// underused counts consecutive solves whose tableau needed less than a
	// quarter of the buffer; shrink, set for one solve once it reaches
	// shrinkAfter, lets every buffer reallocate smaller.
	underused int
	shrink    bool
	// peakCells is the largest tableau (rows × columns) solved so far.
	peakCells int
}

// shrinkAfter is how many consecutive underusing solves make the workspace
// shrink.
const shrinkAfter = 32

// simplex is the working state of one solve. Its slices are windows on
// buffers the owning Workspace keeps between solves.
type simplex struct {
	n, m    int // structural vars, rows
	nTot    int // n + m surplus + m artificial
	width   int // tableau columns: nTot, or n+m without the artificials
	cost    []float64
	lo, hi  []float64
	tab     []float64 // m × width, row-major: row i is tab[i*width : (i+1)*width]
	rhsB    []float64 // B^{-1} b (working rhs under the same row ops)
	beta    []float64 // current value of basic variable per row
	basis   []int
	inBasis []bool
	status  []nbStatus // nonbasic status per variable
	xval    []float64  // value of nonbasic variables (at a bound)

	// Scratch shared by run, runDual and the crash (they never overlap).
	cols  []int     // active columns of the current phase
	nz    []int     // nonzero columns of the current pivot row
	d     []float64 // reduced costs
	cB    []float64 // basic costs
	wcost []float64 // runDual's shifted working costs

	iters     int
	maxIter   int
	deadline  time.Time // zero = no wall-clock cap
	pollEvery int       // simplex iterations per wall-clock poll
}

// deadlineStride is how many loop steps share one wall-clock poll in the
// tableau builds and the crash, and the most iterations the simplex loops
// run between polls.
const deadlineStride = 64

// pollCells is the pivot work, in tableau cells, the simplex loops do
// between wall-clock polls: a pivot updates every cell, so on a large
// tableau 64 pivots between polls can outlast a whole solver budget.
const pollCells = 1 << 20

// iterExpired reports, once every pollEvery simplex iterations, whether the
// wall-clock deadline has passed.
func (s *simplex) iterExpired() bool {
	return s.iters%s.pollEvery == s.pollEvery-1 && s.expired()
}

// expired reports whether the wall-clock deadline has passed.
func (s *simplex) expired() bool { return pastDeadline(s.deadline) }

// pastDeadline reports whether deadline is set and has passed. A solve
// checks it before sizing the workspace, so an expired budget costs no
// tableau at all.
func pastDeadline(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// row returns row i of the tableau.
func (s *simplex) row(i int) []float64 {
	return s.tab[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// prepare sizes the workspace for p, with a tableau holding the first
// n+m+artificials columns (all m artificial columns for the two-phase cold
// solve, none for a warm solve), and resets the working state: an
// all-zero tableau, every variable nonbasic at its lower bound (p.Lo, or 0),
// structural upper bounds p.Hi (or 1), surplus and artificial columns in
// [0, +inf). The caller fills the rows and picks the starting basis.
func (w *Workspace) prepare(p *Problem, artificials int) *simplex {
	s := &w.s
	n, m := p.NumVars, len(p.Rows)
	nTot := n + 2*m
	s.n, s.m, s.nTot = n, m, nTot
	s.width = n + m + artificials
	s.iters = 0
	s.maxIter = p.MaxIter
	if s.maxIter == 0 {
		s.maxIter = 100*(n+m) + 5000
	}
	s.deadline = p.Deadline

	cells := m * s.width
	s.pollEvery = min(deadlineStride, max(1, pollCells/max(cells, 1)))
	w.peakCells = max(w.peakCells, cells)
	w.shrink = false
	if 4*cells < cap(s.tab) {
		w.underused++
		if w.underused >= shrinkAfter {
			w.shrink, w.underused = true, 0
		}
	} else {
		w.underused = 0
	}
	// The tableau's headroom stops at the largest tableau this workspace
	// has needed: growing back toward a size seen before gets room to
	// spare, while the first time at a new peak allocates exactly, so the
	// headroom never raises the peak.
	fitUpTo(&s.tab, cells, w.shrink, w.peakCells)
	clear(s.tab)
	fit(&s.cost, nTot, w.shrink)
	fit(&s.lo, nTot, w.shrink)
	fit(&s.hi, nTot, w.shrink)
	fit(&s.xval, nTot, w.shrink)
	fit(&s.inBasis, nTot, w.shrink)
	fit(&s.status, nTot, w.shrink)
	fit(&s.d, nTot, w.shrink)
	fit(&s.wcost, nTot, w.shrink)
	fit(&s.cols, nTot, w.shrink)
	fit(&s.nz, nTot, w.shrink)
	fit(&s.rhsB, m, w.shrink)
	fit(&s.beta, m, w.shrink)
	fit(&s.basis, m, w.shrink)
	fit(&s.cB, m, w.shrink)

	clear(s.inBasis)
	clear(s.status)
	clear(s.xval)
	clear(s.lo)
	clear(s.beta)
	clear(s.cost)
	if p.Lo != nil {
		copy(s.lo, p.Lo)
	}
	if p.Hi != nil {
		copy(s.hi, p.Hi)
	} else {
		for j := 0; j < n; j++ {
			s.hi[j] = 1
		}
	}
	inf := math.Inf(1)
	for j := n; j < nTot; j++ {
		s.hi[j] = inf
	}
	copy(s.xval, s.lo[:n])
	return s
}

// scaleRow multiplies row by f over the columns idx.
func scaleRow(row []float64, f float64, idx []int) {
	for _, j := range idx {
		row[j] *= f
	}
}

// subRow subtracts f·src from dst over the columns idx: the tableau row
// update of every Gauss-Jordan step.
func subRow(dst, src []float64, f float64, idx []int) {
	for _, j := range idx {
		dst[j] -= f * src[j]
	}
}

// nonzeros appends to buf[:0] the columns among idx where row is nonzero.
// Eliminating only over these columns gives bit-for-bit the result of the
// full-width update (x − f·0 = x), at the cost of the pivot row's fill.
func nonzeros(buf []int, row []float64, idx []int) []int {
	buf = buf[:0]
	for _, j := range idx {
		if row[j] != 0 {
			buf = append(buf, j)
		}
	}
	return buf
}

// eliminate clears column col from every row but r using the (already
// scaled) pivot row r, over the nonzero columns nz of row r. Rows it
// changes are marked false in touched, when touched is not nil.
func (s *simplex) eliminate(r, col int, nz []int, touched []bool) {
	rowR := s.row(r)
	rhsR := s.rhsB[r]
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		rowI := s.row(i)
		f := rowI[col]
		if f == 0 {
			continue
		}
		subRow(rowI, rowR, f, nz)
		s.rhsB[i] -= f * rhsR
		if touched != nil {
			touched[i] = false
		}
	}
}

// corrupted reports whether floating-point corruption (NaN/Inf) has reached
// the working basic solution. Called from the periodic refresh so the cost
// stays off the per-pivot path.
func (s *simplex) corrupted() bool {
	for i := 0; i < s.m; i++ {
		if math.IsNaN(s.beta[i]) || math.IsInf(s.beta[i], 0) ||
			math.IsNaN(s.rhsB[i]) || math.IsInf(s.rhsB[i], 0) {
			return true
		}
	}
	return false
}

// refreshBeta recomputes the basic variable values from rhsB and the
// nonbasic bound values, limiting incremental floating-point drift. Only
// nonbasic columns away from zero contribute; when there are none — always
// so in the LPR dual, whose variables sit at their zero lower bound — the
// basic values are rhsB itself and the rows × columns scan is skipped.
func (s *simplex) refreshBeta() {
	off := s.nz[:0]
	for j := 0; j < s.width; j++ {
		if !s.inBasis[j] && s.xval[j] != 0 {
			off = append(off, j)
		}
	}
	if len(off) == 0 {
		copy(s.beta, s.rhsB)
		return
	}
	for i := 0; i < s.m; i++ {
		v := s.rhsB[i]
		row := s.row(i)
		for _, j := range off {
			v -= row[j] * s.xval[j]
		}
		s.beta[i] = v
	}
}

// keyIndex maps caller keys to positions in the current problem. Keys in
// [0, maxDenseKey) are direct-addressed in a table sized to the largest key
// seen (engine constraint indices and variables, in the LPR dual); any other
// key — the LPR dual's pool-cut columns — goes through a map. Entries are
// removed with unset after each use, so the index is empty between solves.
type keyIndex struct {
	dense  []int32 // dense[k] = position+1, 0 = absent
	sparse map[int64]int32
}

// maxDenseKey bounds the direct-addressed table (4 MB of int32).
const maxDenseKey = 1 << 20

func (x *keyIndex) set(k int64, pos int) {
	if k >= 0 && k < maxDenseKey {
		if int(k) >= len(x.dense) {
			x.dense = growKeys(x.dense, int(k)+1)
		}
		x.dense[k] = int32(pos + 1)
		return
	}
	if x.sparse == nil {
		x.sparse = newSparseKeys()
	}
	x.sparse[k] = int32(pos)
}

func (x *keyIndex) get(k int64) (int, bool) {
	if k >= 0 && k < maxDenseKey {
		if int(k) < len(x.dense) && x.dense[k] != 0 {
			return int(x.dense[k]) - 1, true
		}
		return 0, false
	}
	pos, ok := x.sparse[k]
	return int(pos), ok
}

func (x *keyIndex) unset(keys []int64) {
	for _, k := range keys {
		if k >= 0 && k < maxDenseKey {
			if int(k) < len(x.dense) {
				x.dense[k] = 0
			}
		} else if x.sparse != nil {
			delete(x.sparse, k)
		}
	}
}
