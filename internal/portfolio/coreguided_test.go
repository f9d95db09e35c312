package portfolio

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/pb"
	"repro/internal/wbo"
)

func randomWBO(rng *rand.Rand) *wbo.Instance {
	n := 2 + rng.Intn(4)
	in := &wbo.Instance{NumVars: n}
	clause := func() []pb.Term {
		nt := 1 + rng.Intn(3)
		terms := make([]pb.Term, nt)
		for k := range terms {
			terms[k] = pb.Term{Coef: 1, Lit: pb.MkLit(pb.Var(rng.Intn(n)), rng.Intn(2) == 0)}
		}
		return terms
	}
	for i := rng.Intn(3); i > 0; i-- {
		in.Hard = append(in.Hard, wbo.HardCons{Terms: clause(), Cmp: pb.GE, Rhs: 1})
	}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		in.Soft = append(in.Soft, wbo.SoftCons{
			Weight: int64(1 + rng.Intn(9)), Terms: clause(), Cmp: pb.GE, Rhs: 1})
	}
	return in
}

// TestMixedPortfolioCoreGuided races the core-guided member against
// branch-and-bound on random WBO instances under the exhaustive auditor:
// both must prove the same optimum (or agree on hard-UNSAT), and every
// published incumbent and terminal claim must survive the audit.
func TestMixedPortfolioCoreGuided(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 40; iter++ {
		in := randomWBO(rng)
		b, err := in.Builder()
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Problem()
		if err != nil {
			t.Fatal(err)
		}
		want := pb.BruteForce(p)

		aud := audit.New(p)
		configs := []Config{
			{Name: "core-guided", CoreGuided: &CoreGuided{Instance: in}},
			{Name: "mis", Options: core.Options{LowerBound: core.LBMIS, Seed: 2}},
		}
		res := SolveOpts(p, configs, Options{Audit: aud})
		if !want.Feasible {
			if res.Status != core.StatusUnsat {
				t.Fatalf("iter %d: status=%v want unsat (winner %s)", iter, res.Status, res.Winner)
			}
		} else if res.Status != core.StatusOptimal || res.Best != want.Optimum {
			t.Fatalf("iter %d: got %v/%d want optimal/%d (winner %s)",
				iter, res.Status, res.Best, want.Optimum, res.Winner)
		}
		if rep := aud.Snapshot(); !rep.Ok() {
			t.Fatalf("iter %d: audit violations:\n%s", iter, rep.String())
		}
	}
}

// TestCoreGuidedMemberAloneProvesOptimum pins the member in isolation: it
// must win the race outright (no B&B member present) with a verified
// compiled-space witness.
func TestCoreGuidedMemberAloneProvesOptimum(t *testing.T) {
	in := &wbo.Instance{
		NumVars: 2,
		Hard:    []wbo.HardCons{{Terms: []pb.Term{{Coef: 1, Lit: pb.NegLit(0)}, {Coef: 1, Lit: pb.NegLit(1)}}, Cmp: pb.GE, Rhs: 1}},
		Soft: []wbo.SoftCons{
			{Weight: 7, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, Cmp: pb.GE, Rhs: 1},
			{Weight: 2, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(1)}}, Cmp: pb.GE, Rhs: 1},
		},
	}
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	res := SolveOpts(p, []Config{{CoreGuided: &CoreGuided{Instance: in}}}, Options{})
	if res.Status != core.StatusOptimal || res.Best != 2 {
		t.Fatalf("got %v/%d want optimal/2", res.Status, res.Best)
	}
	if res.Winner != "core-guided" {
		t.Fatalf("winner=%q want core-guided", res.Winner)
	}
	if !res.HasSolution || !p.Feasible(res.Values) {
		t.Fatal("winner must carry a feasible compiled-space witness")
	}
}

// TestSanitizeCoreGuidedDemotesBogusClaims drives the verifier with claims
// a buggy (or mismatched) core-guided member could emit: an optimal verdict
// without a witness or with a cost that does not match the claim, and an
// assumption-relative unsat, must all demote to StatusLimit. The witnesses
// are lifted into the compiled space.
func TestSanitizeCoreGuidedDemotesBogusClaims(t *testing.T) {
	// pw: the compilation of one weight-3 soft unit x0 (x0, then its
	// selector).
	in := &wbo.Instance{
		NumVars: 1,
		Soft: []wbo.SoftCons{
			{Weight: 3, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, Cmp: pb.GE, Rhs: 1}},
	}
	b, err := in.Builder()
	if err != nil {
		t.Fatal(err)
	}
	pw, err := b.Problem()
	if err != nil {
		t.Fatal(err)
	}
	coreGuided := func(r wbo.Result) claim { return coreGuidedClaim(pw, in, r) }
	checkVerify(t, []verifyCase{
		{"cg witnessless optimal", pw, coreGuided(wbo.Result{Status: core.StatusOptimal}), core.StatusLimit, false, 0},
		// x0=0 violates the soft (compiled cost 3) while the claim says 0:
		// the verified witness survives as an incumbent at its real cost.
		{"cg cost-mismatched optimal", pw, coreGuided(wbo.Result{
			Status: core.StatusOptimal, HasSolution: true, Values: []bool{false}}), core.StatusLimit, true, 3},
		// Unsat without the HardUnsat marker (assumption-relative refusal)
		// is no unsatisfiability verdict for the compiled problem.
		{"cg non-hard unsat", pw, coreGuided(wbo.Result{Status: core.StatusUnsat}), core.StatusLimit, false, 0},
		{"cg hard unsat", pw, coreGuided(wbo.Result{Status: core.StatusUnsat, HardUnsat: true}), core.StatusUnsat, false, 0},
		{"cg consistent optimal", pw, coreGuided(wbo.Result{
			Status: core.StatusOptimal, HasSolution: true, Values: []bool{true}}), core.StatusOptimal, true, 0},
	})
}

// TestBogusExactClaimDoesNotWin races an exact member whose optimality claim
// fails verification — a core-guided member handed a problem that is not its
// instance's compilation — against branch and bound. Its witness is
// infeasible in the raced problem, so the verifier demotes the claim before
// the winner logic sees it, nothing reaches the board, and the B&B member's
// proof wins.
func TestBogusExactClaimDoesNotWin(t *testing.T) {
	in := &wbo.Instance{
		NumVars: 1,
		Soft: []wbo.SoftCons{
			{Weight: 3, Terms: []pb.Term{{Coef: 1, Lit: pb.PosLit(0)}}, Cmp: pb.GE, Rhs: 1}},
	}
	// Same two-variable layout, but x0 is forbidden: the core-guided
	// optimum (x0=1, selector 0, cost 0) is infeasible here; the true
	// optimum is x1=1 at cost 3.
	p := pb.NewProblem(2)
	p.SetCost(1, 3)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.NegLit(0)}}, pb.GE, 1)
	_ = p.AddConstraint([]pb.Term{{Coef: 1, Lit: pb.PosLit(0)}, {Coef: 1, Lit: pb.PosLit(1)}}, pb.GE, 1)
	configs := []Config{
		{Name: "core-guided", CoreGuided: &CoreGuided{Instance: in}},
		{Name: "plain", Options: core.Options{LowerBound: core.LBNone}},
	}
	res := SolveOpts(p, configs, Options{MaxConcurrent: 1})
	if cg := res.Members[0]; cg.Status != core.StatusLimit || cg.HasSolution {
		t.Fatalf("bogus claim not demoted: %v sol=%v", cg.Status, cg.HasSolution)
	}
	if res.Status != core.StatusOptimal || res.Best != 3 || res.Winner != "plain" {
		t.Fatalf("got %v/%d winner %q, want optimal/3 from plain", res.Status, res.Best, res.Winner)
	}
	if res.Board.BestOwner == "core-guided" {
		t.Fatal("an unverified witness reached the board")
	}
}
