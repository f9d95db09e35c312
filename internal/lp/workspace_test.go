package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestSolveWarmPastDeadline: a deadline that has already passed ends the
// solve at the first poll of the tableau build — IterLimit, the anytime
// outcome, with no pivot done — on the cold path and on the warm path
// alike, and leaves the stored basis as it was.
func TestSolveWarmPastDeadline(t *testing.T) {
	probs, varKeys, rowKeys := lprNodeSequence(21, 40, 60, 1)
	var w Workspace
	var bas Basis
	past := time.Now().Add(-time.Second)

	p := *probs[0]
	p.Deadline = past
	sol, err := w.SolveWarm(&p, varKeys[0], rowKeys[0], &bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit || sol.Iterations != 0 || sol.X != nil {
		t.Fatalf("cold solve past its deadline: status %v, %d iterations, X=%v", sol.Status, sol.Iterations, sol.X != nil)
	}

	// Solve without a deadline to get a basis, then re-solve the next node
	// past the deadline: the warm build stops before the crash pivots.
	if _, err := w.SolveWarm(probs[0], varKeys[0], rowKeys[0], &bas); err != nil {
		t.Fatal(err)
	}
	rows := bas.Len()
	if rows == 0 {
		t.Fatal("no basis after an unlimited solve")
	}
	q := *probs[1]
	q.Deadline = past
	sol, err = w.SolveWarm(&q, varKeys[1], rowKeys[1], &bas)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit || sol.Iterations != 0 || sol.X != nil || sol.Warm {
		t.Fatalf("warm solve past its deadline: %+v", sol)
	}
	if bas.Len() != rows {
		t.Fatalf("an expired solve changed the basis: %d rows, want %d", bas.Len(), rows)
	}
	// The package-level entry points honour the same contract.
	if sol, err := Solve(&q); err != nil || sol.Status != IterLimit || sol.Iterations != 0 {
		t.Fatalf("Solve past its deadline: %+v, %v", sol, err)
	}
}

// TestWorkspaceHygiene drives one Workspace and one Basis through a node
// walk whose LP grows, shrinks below a quarter of the workspace for long
// enough to make it reallocate smaller, and grows again, with lp.warmcrash
// and lp.pivot corruption injected on some steps. After every step the next
// solve must match fresh solves: bit for bit the same warm solve in a fresh
// workspace from a copy of the same basis — nothing a previous problem or a
// faulted solve left behind may leak into the next one — and, within 1e-6,
// the objective of a cold lp.Solve, with duals that certify it. (Duals are
// compared by certificate, not entry by entry: these LPs are degenerate, and
// the cold and warm bases can be different optimal duals of the same LP.)
func TestWorkspaceHygiene(t *testing.T) {
	defer fault.Reset()
	type step struct {
		p       *Problem
		vk, rk  []int64
		faultPt string
	}
	var walk []step
	add := func(seed int64, m, n, steps int) {
		probs, vks, rks := lprNodeSequence(seed, m, n, steps)
		for k := range probs {
			walk = append(walk, step{p: probs[k], vk: vks[k], rk: rks[k]})
		}
	}
	add(21, 40, 60, 12) // large
	// 0/1-bounded covering LPs: nonbasic-at-upper statuses, phase 1.
	for k := int64(0); k < 6; k++ {
		p := coveringLP(rand.New(rand.NewSource(k)), 30, 40)
		vk, rk := keysFor(p)
		walk = append(walk, step{p: p, vk: vk, rk: rk})
	}
	add(5, 5, 6, 2*shrinkAfter) // far below a quarter, long enough to shrink
	add(33, 30, 50, 12)         // large again
	for k := range walk {
		switch k % 9 {
		case 4:
			walk[k].faultPt = "lp.warmcrash"
		case 7:
			walk[k].faultPt = "lp.pivot"
		}
	}

	var w Workspace
	var bas Basis
	var shrunk, regrown bool
	var high, low int
	fired := map[string]int64{}
	optimal := 0
	for k, st := range walk {
		if st.faultPt != "" {
			fault.Arm(st.faultPt, fault.Spec{Kind: fault.KindCorrupt, Every: 1})
			if _, err := w.SolveWarm(st.p, st.vk, st.rk, &bas); err != nil {
				t.Fatalf("step %d: %v", k, err)
			}
			_, n := fault.Counts(st.faultPt)
			fired[st.faultPt] += n
			fault.Reset()
		}
		ref := bas.clone()
		got, err := w.SolveWarm(st.p, st.vk, st.rk, &bas)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		fresh, _, err := SolveWarm(st.p, st.vk, st.rk, ref)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(st.p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != cold.Status || got.Status != fresh.Status {
			t.Fatalf("step %d: status %v, fresh workspace %v, cold %v", k, got.Status, fresh.Status, cold.Status)
		}
		if got.Status != Optimal {
			continue
		}
		optimal++
		if got.Objective != fresh.Objective || got.Warm != fresh.Warm || got.Iterations != fresh.Iterations {
			t.Fatalf("step %d: reused workspace differs from a fresh one: obj %v/%v warm %v/%v iters %d/%d",
				k, got.Objective, fresh.Objective, got.Warm, fresh.Warm, got.Iterations, fresh.Iterations)
		}
		if math.Abs(got.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("step %d: objective %v, cold %v", k, got.Objective, cold.Objective)
		}
		for i := range got.Dual {
			if got.Dual[i] != fresh.Dual[i] {
				t.Fatalf("step %d: dual[%d] %v, fresh workspace %v", k, i, got.Dual[i], fresh.Dual[i])
			}
		}
		if err := checkOptimalDual(st.p, got.Dual, cold.Objective); err != "" {
			t.Fatalf("step %d: %s", k, err)
		}

		switch c := cap(w.s.tab); {
		case !shrunk:
			high = max(high, c)
			if 4*c < high {
				shrunk, low = true, c
			}
		case !regrown && c > 4*low:
			regrown = true
		}
	}
	if optimal < len(walk)*3/4 {
		t.Fatalf("only %d of %d steps optimal", optimal, len(walk))
	}
	if fired["lp.warmcrash"] == 0 || fired["lp.pivot"] == 0 {
		t.Fatalf("fault points never fired: %v", fired)
	}
	if !shrunk || !regrown {
		t.Fatalf("walk did not exercise shrink and regrowth: shrunk=%v regrown=%v", shrunk, regrown)
	}
}

// checkOptimalDual reports (as a non-empty message) unless y is an optimal
// dual of p — min c·x s.t. Ax ≥ b, 0 ≤ x ≤ u — for the optimum obj: y ≥ 0
// and b·y + Σ_j u_j·min(0, (c − Aᵀy)_j) = obj, within 1e-6. (With u = ∞,
// as in the LPR dual, that is Aᵀy ≤ c and b·y = obj.)
func checkOptimalDual(p *Problem, y []float64, obj float64) string {
	red := append([]float64(nil), p.Cost...)
	by := 0.0
	for i, r := range p.Rows {
		if y[i] < -1e-9 {
			return fmt.Sprintf("dual[%d] = %v < 0", i, y[i])
		}
		by += r.RHS * y[i]
		for _, e := range r.Entries {
			red[e.Var] -= e.Coef * y[i]
		}
	}
	for j, rc := range red {
		if rc >= -1e-6 {
			continue
		}
		u := 1.0
		if p.Hi != nil {
			u = p.Hi[j]
		}
		if math.IsInf(u, 1) {
			return fmt.Sprintf("dual infeasible: reduced cost of x%d is %v", j, rc)
		}
		by += u * rc
	}
	if math.Abs(by-obj) > 1e-6 {
		return fmt.Sprintf("dual objective %v, primal optimum %v", by, obj)
	}
	return ""
}
