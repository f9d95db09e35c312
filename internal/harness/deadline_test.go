package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestEveryColumnKeepsItsDeadline is the time-limit gate: every solver
// column, portfolios included, must return within limit + max(10%, 50 ms)
// on a sat row nothing proves that fast and on a wbo row, both with one
// core (members of a portfolio then queue) and with all of them.
func TestEveryColumnKeepsItsDeadline(t *testing.T) {
	const limit = 300 * time.Millisecond
	slack := limit / 10
	if slack < 50*time.Millisecond {
		slack = 50 * time.Millisecond
	}
	sat, err := Instances([]Family{FamilySat}, Scale{PerFamily: 1})
	if err != nil {
		t.Fatal(err)
	}
	wbo, err := Instances([]Family{FamilyWbo}, Scale{PerFamily: 1})
	if err != nil {
		t.Fatal(err)
	}
	common := append(Solvers(), SolverPortfolio, SolverPortfolioIso, SolverLS, SolverPortfolioLS)
	rows := []struct {
		inst    Instance
		solvers []SolverID
	}{
		{sat[0], common},
		{wbo[0], append(append([]SolverID(nil), common...), SolverCoreGuided, SolverPortfolioWbo)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for _, row := range rows {
			for _, id := range row.solvers {
				rr := Run(row.inst, id, Limits{Time: limit})
				if rr.Err != "" {
					t.Errorf("procs=%d %s/%s: %s", procs, row.inst.Name, id, rr.Err)
				}
				t.Logf("procs=%d %s/%s: %v", procs, row.inst.Name, id, rr.Duration)
				if rr.Duration > limit+slack {
					t.Errorf("procs=%d %s/%s: took %v, limit %v + %v",
						procs, row.inst.Name, id, rr.Duration, limit, slack)
				}
			}
		}
	}
}
