package ls

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/share"
)

func randomPBO(rng *rand.Rand, n, m int) *pb.Problem {
	p := pb.NewProblem(n)
	for v := 0; v < n; v++ {
		p.SetCost(pb.Var(v), int64(rng.Intn(7)))
	}
	for i := 0; i < m; i++ {
		nt := 1 + rng.Intn(4)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{
				Coef: int64(1 + rng.Intn(4)),
				Lit:  pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(3) == 0),
			}
		}
		_ = p.AddConstraint(terms, pb.GE, int64(rng.Intn(6)))
	}
	return p
}

func parse(t *testing.T, text string) *pb.Problem {
	t.Helper()
	p, err := opb.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkSolution verifies a result's certificate against the original problem.
func checkSolution(t *testing.T, p *pb.Problem, res Result) {
	t.Helper()
	if !res.HasSolution {
		return
	}
	if len(res.Values) != p.NumVars {
		t.Fatalf("values length %d, want %d", len(res.Values), p.NumVars)
	}
	if !p.Feasible(res.Values) {
		t.Fatal("reported solution is infeasible")
	}
	if got := p.ObjectiveValue(res.Values); got != res.Best {
		t.Fatalf("reported Best=%d but values cost %d", res.Best, got)
	}
}

// TestFindsOptimumOnSmallInstances: with a generous flip budget, restarts and
// tiny instances, local search lands on the brute-force optimum. The run is
// fully deterministic (fixed seeds, no board), so this is a stable assertion,
// not a probabilistic one.
func TestFindsOptimumOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	found, feasible := 0, 0
	for iter := 0; iter < 40; iter++ {
		p := randomPBO(rng, 2+rng.Intn(8), 1+rng.Intn(8))
		want := pb.BruteForce(p)
		aud := audit.New(p)
		res := Solve(p, Options{Seed: int64(iter + 1), MaxFlips: 60_000, Audit: aud})
		if rep := aud.Snapshot(); !rep.Ok() {
			t.Fatalf("iter %d: audit: %v", iter, rep.Violations)
		}
		checkSolution(t, p, res)
		if !want.Feasible {
			if res.HasSolution || res.Satisfiable {
				t.Fatalf("iter %d: solution claimed on an UNSAT instance", iter)
			}
			continue
		}
		feasible++
		if !res.HasSolution {
			t.Fatalf("iter %d: no solution on a feasible %d-var instance after %d flips",
				iter, p.NumVars, res.Stats.Flips)
		}
		if res.Best < want.Optimum {
			t.Fatalf("iter %d: Best=%d undercuts brute-force optimum %d", iter, res.Best, want.Optimum)
		}
		if res.Best == want.Optimum {
			found++
		}
		if res.Stats.LiftRejected != 0 {
			t.Fatalf("iter %d: %d incumbents failed lift verification without presolve",
				iter, res.Stats.LiftRejected)
		}
	}
	// Tiny instances + 60k flips: local search hits the exact optimum on
	// every feasible instance of this fixed, deterministic batch — a
	// regression in the scoring/flip logic shows up as a hard drop here.
	if feasible == 0 {
		t.Fatal("generator produced no feasible instances")
	}
	if found < feasible {
		t.Fatalf("optimum found on only %d/%d feasible instances", found, feasible)
	}
}

// TestDeterministicUnderFixedSeed: the explicit-randomness rule — two runs
// with the same seed and no board are identical, a different seed diverges.
func TestDeterministicUnderFixedSeed(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(7)), 8, 7)
	a := Solve(p, Options{Seed: 3, MaxFlips: 20_000})
	b := Solve(p, Options{Seed: 3, MaxFlips: 20_000})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestSatisfiableWitnessOnObjectiveFree: an objective-free instance ends with
// a verified SAT witness — the one conclusive verdict a UB-only member may
// produce.
func TestSatisfiableWitnessOnObjectiveFree(t *testing.T) {
	p := parse(t, "+1 a +1 b >= 1 ;\n+2 a +1 c >= 2 ;")
	aud := audit.New(p)
	res := Solve(p, Options{Seed: 1, MaxFlips: 10_000, Audit: aud})
	if !res.Satisfiable || !res.HasSolution {
		t.Fatalf("satisfiable instance: %+v", res)
	}
	checkSolution(t, p, res)
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestUnsatMakesNoClaim: on infeasible instances the worker finds nothing and
// claims nothing — Result has no UNSAT verdict to fake, and the auditor sees
// no termination claim at all.
func TestUnsatMakesNoClaim(t *testing.T) {
	p := parse(t, "min: +1 a ;\n+1 a >= 1 ;\n+1 ~a >= 1 ;")
	for _, presolve := range []bool{false, true} {
		aud := audit.New(p)
		res := Solve(p, Options{Seed: 1, MaxFlips: 5_000, Presolve: presolve, Audit: aud})
		if res.HasSolution || res.Satisfiable {
			t.Fatalf("presolve=%t: claimed a solution on an UNSAT instance: %+v", presolve, res)
		}
		if res.Err != nil {
			t.Fatalf("presolve=%t: err=%v", presolve, res.Err)
		}
		if rep := aud.Snapshot(); !rep.Ok() {
			t.Fatalf("presolve=%t: audit: %v", presolve, rep.Violations)
		}
	}
}

// recPool is a fake board recording everything the worker publishes.
type recPool struct {
	mu    sync.Mutex
	costs []int64
	vals  [][]bool
	// imp, when non-nil, is served by BestIncumbent with impCost.
	imp     []bool
	impCost int64
}

func (r *recPool) PublishIncumbent(cost int64, values []bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.costs = append(r.costs, cost)
	r.vals = append(r.vals, append([]bool(nil), values...))
	return true
}

func (r *recPool) BestUB() (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.imp == nil {
		return 0, false
	}
	return r.impCost, true
}

func (r *recPool) BestIncumbent(below int64) (int64, []bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.imp == nil || r.impCost >= below {
		return 0, nil, false
	}
	return r.impCost, append([]bool(nil), r.imp...), true
}

// TestPresolvePublishesExternalSpace is the lifting regression test: with
// presolve fixing variables, every incumbent reaching the board must be in
// the ORIGINAL variable space and feasible there. Before the lift, the
// reduced-space assignment (shorter, renumbered — variable "b" occupying
// slot 0 after "a" is fixed) would corrupt the shared certificate exactly
// like the PR 4 value-line bug.
func TestPresolvePublishesExternalSpace(t *testing.T) {
	// Probing fixes a=1 (the unit row); the reduced problem keeps only b, c
	// renumbered from 0.
	p := parse(t, "min: +2 a +1 b +1 c ;\n+1 a >= 1 ;\n+1 a +1 b +1 c >= 2 ;")
	pool := &recPool{}
	aud := audit.New(p)
	res := Solve(p, Options{Seed: 5, MaxFlips: 20_000, Presolve: true, Share: pool, Audit: aud})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.PresolveFixed == 0 {
		t.Skip("presolve fixed nothing — instance no longer exercises the lift")
	}
	if !res.HasSolution {
		t.Fatal("no solution on a trivially satisfiable instance")
	}
	checkSolution(t, p, res)
	if res.Stats.LiftRejected != 0 {
		t.Fatalf("%d incumbents failed lift verification", res.Stats.LiftRejected)
	}
	if len(pool.vals) == 0 {
		t.Fatal("nothing published to the board")
	}
	for i, vals := range pool.vals {
		if len(vals) != p.NumVars {
			t.Fatalf("publication %d: %d values on the board, original problem has %d vars",
				i, len(vals), p.NumVars)
		}
		if !p.Feasible(vals) {
			t.Fatalf("publication %d: board assignment infeasible in the original space", i)
		}
		var cost int64
		for v, c := range p.Cost {
			if c != 0 && vals[v] {
				cost += c
			}
		}
		if cost != pool.costs[i] {
			t.Fatalf("publication %d: claimed internal cost %d, assignment costs %d",
				i, pool.costs[i], cost)
		}
	}
	// Brute-force cross-check: published best equals the external optimum.
	want := pb.BruteForce(p)
	if res.Best != want.Optimum {
		t.Fatalf("Best=%d, brute-force optimum %d", res.Best, want.Optimum)
	}
	if rep := aud.Snapshot(); !rep.Ok() {
		t.Fatalf("audit: %v", rep.Violations)
	}
}

// TestRestartImportsBoardIncumbent drives the restart path directly: a board
// incumbent strictly better than the solver's best is projected into the
// search space (dropping presolve-fixed variables) and the incremental state
// stays exact; a malformed entry falls back to perturbation without tearing.
func TestRestartImportsBoardIncumbent(t *testing.T) {
	p := parse(t, "min: +2 a +1 b +1 c ;\n+1 a >= 1 ;\n+1 a +1 b +1 c >= 2 ;")
	// Original-space optimum: a=1, one of b/c=1 → internal cost 3.
	pool := &recPool{imp: []bool{true, true, false}, impCost: 3}
	for _, presolve := range []bool{false, true} {
		s, _ := newSolver(p, Options{Seed: 2, Presolve: presolve, Share: pool})
		if s == nil {
			t.Fatalf("presolve=%t: solver not built", presolve)
		}
		s.restart()
		if s.stats.BoardImports != 1 {
			t.Fatalf("presolve=%t: imports=%d want 1", presolve, s.stats.BoardImports)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("presolve=%t: state torn after import: %v", presolve, err)
		}
		// The projected assignment must mirror the board's on every
		// searched variable.
		for nv := 0; nv < s.prob.NumVars; nv++ {
			ov := nv
			if s.fx != nil {
				ov = int(s.fx.NewToOld[nv])
			}
			if s.values[nv] != pool.imp[ov] {
				t.Fatalf("presolve=%t: var %d not adopted from the board", presolve, nv)
			}
		}

		// Malformed (wrong-length) board entry: no tear, perturb fallback.
		bad := &recPool{imp: []bool{true}, impCost: 1}
		s2, _ := newSolver(p, Options{Seed: 3, Presolve: presolve, Share: bad})
		s2.restart()
		if err := s2.CheckInvariants(); err != nil {
			t.Fatalf("presolve=%t: malformed import tore the state: %v", presolve, err)
		}
	}
}

// TestBoardScrambleDuringRestarts is the -race pin for the restart-import
// path (mirrors TestImportClauseInternsLiterals for clause imports): a
// scrambler goroutine floods a real share.Board with ever-better garbage
// incumbents while the worker restarts aggressively. The worker may adopt
// any of them as restart points, but its own published certificates and its
// final result must stay verified, and its incremental state exact.
func TestBoardScrambleDuringRestarts(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(9)), 10, 8)
	board := share.NewBoard()
	worker := board.JoinNoClauses("ls")
	scrambler := board.Join("scrambler")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		cost := int64(1 << 40) // descending garbage: each accepted, then beaten
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals := make([]bool, p.NumVars)
			for v := range vals {
				vals[v] = rng.Intn(2) == 0
			}
			scrambler.PublishIncumbent(cost, vals)
			cost--
		}
	}()

	s, _ := newSolver(p, Options{Seed: 4, MaxFlips: 200_000, Share: worker})
	if s == nil {
		t.Fatal("solver not built")
	}
	s.restartInterval = 64
	s.run()
	close(stop)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("state torn under board scramble: %v", err)
	}
	res := s.finish()
	checkSolution(t, p, res)
	// The worker's own certificate never degrades to garbage: every
	// publication was lift-verified, so zero rejections means zero corrupt
	// candidates even under a hostile board.
	if res.Stats.LiftRejected != 0 {
		t.Fatalf("%d self-publications failed verification", res.Stats.LiftRejected)
	}
}

// TestCancelStopsTheRun: Options.Cancel ends an unbounded run promptly.
func TestCancelStopsTheRun(t *testing.T) {
	p := randomPBO(rand.New(rand.NewSource(3)), 10, 8)
	cancel := make(chan struct{})
	done := make(chan Result, 1)
	go func() { done <- Solve(p, Options{Seed: 1, Cancel: cancel}) }()
	close(cancel)
	select {
	case res := <-done:
		checkSolution(t, p, res)
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not stop the run")
	}
}
