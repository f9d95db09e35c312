package harness

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// TestCrashedColumnIsACrashCell arms a panic in the lpr solver only: the lpr
// column, a one-member race whose member crashed, becomes a crash cell, while
// the portfolio column loses that member and still solves the row.
func TestCrashedColumnIsACrashCell(t *testing.T) {
	insts, err := Instances([]Family{FamilySynth}, Scale{SynthNodes: 8, PerFamily: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	fault.Arm("core.solve", fault.Spec{Kind: fault.KindPanic, Every: 1, Match: "lpr"})
	lim := Limits{MaxConflicts: 100000}
	rr := Run(insts[0], SolverLPR, lim)
	if rr.Err == "" || rr.Solved || rr.HasUB {
		t.Fatalf("lpr: err=%q solved=%v hasUB=%v, want a crash cell", rr.Err, rr.Solved, rr.HasUB)
	}
	if !strings.Contains(rr.Err, "panicked") {
		t.Fatalf("lpr: err=%q does not report the panic", rr.Err)
	}
	if !strings.Contains(FormatTable([]RunResult{rr}, []SolverID{SolverLPR}), "crash") {
		t.Fatal("the crash cell does not render as crash")
	}
	pr := Run(insts[0], SolverPortfolio, lim)
	if pr.Err != "" || !pr.Solved {
		t.Fatalf("portfolio: err=%q solved=%v, want the surviving members to solve the row", pr.Err, pr.Solved)
	}
	if _, fires := fault.Counts("core.solve"); fires != 2 {
		t.Fatalf("core.solve fired %d times, want 2 (lpr column, lpr member)", fires)
	}
}
