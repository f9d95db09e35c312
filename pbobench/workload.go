package main

import (
	"fmt"
	"time"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/milp"
	"repro/internal/opb"
	"repro/internal/pb"
)

// workload is one set of generated instances and the solver configuration
// the closed loop runs on them.
type workload struct {
	name     string
	families []harness.Family
	scale    harness.Scale
	// dropLast removes the last row of this family: the harness makes it
	// deliberately out of reach (mcnc-10-10 at the default scale).
	dropLast harness.Family
	// limit is the time limit handed to the solver for every solve.
	limit time.Duration
	// race runs the cooperative portfolio (plus one local-search member)
	// instead of a single bsolo+LPR solve. A single solve must prove its
	// answer within limit; a race is expected to end at its deadline.
	race bool
	// needOptimum makes a reference optimum part of set-up (internal/milp)
	// that every proved answer must match.
	needOptimum bool
}

// The sat-race deadline and size (SatNodes; the rows have 190-235
// variables). The portfolio overruns a short deadline about tenfold:
// members queue for two goroutines, and a dense LP pivot does not poll the
// clock. At the harness's default size (420) one race takes over a second
// even at a 100 ms deadline, too slow for a hundred races in a run. At
// this size a race takes about 50 ms and no row proves optimality within
// the deadline.
const (
	raceDeadline = 5 * time.Millisecond
	raceSatNodes = 200
)

// rootLPRIter caps the simplex iterations of the set-up's root LPR call.
// The call returns a sound anytime bound at any cap; the cap keeps the
// sat-race LPs (0.3-0.6 s each to optimality) from dominating set-up.
const rootLPRIter = 400

// workloads returns the benchmark's workloads at scale sc (the harness's
// default scale for the benchmark, a tiny one in tests).
func workloads(sc harness.Scale) []workload {
	acc := sc
	acc.AccTeams = 3 * sc.AccTeams
	acc.PerFamily = 2 * sc.PerFamily
	sat := sc
	sat.SatNodes = sc.SatNodes * raceSatNodes / harness.DefaultScale().SatNodes
	return []workload{
		{
			name:        "table1-lpr",
			families:    []harness.Family{harness.FamilyGrout, harness.FamilySynth, harness.FamilyMcnc},
			scale:       sc,
			dropLast:    harness.FamilyMcnc,
			limit:       20 * time.Second,
			needOptimum: true,
		},
		{
			name:     "acc-sat",
			families: []harness.Family{harness.FamilyAcc},
			scale:    acc,
			limit:    20 * time.Second,
		},
		{
			name:     "sat-race",
			families: []harness.Family{harness.FamilySat},
			scale:    sat,
			limit:    raceDeadline,
			race:     true,
		},
	}
}

func findWorkload(name string, sc harness.Scale) (workload, bool) {
	for _, w := range workloads(sc) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one generated row as the solver receives it, with the
// references its answers are checked against.
type instance struct {
	name string
	text string // OPB text: the only thing the solver sees
	// optimum is the internal/milp optimum of the generated problem
	// (needOptimum workloads only).
	optimum int64
	// rootLB is a root LPR lower bound on the objective (objective
	// instances only); hasLB reports whether it was computed.
	rootLB int64
	hasLB  bool
	// rootLPR is the thread CPU time of the root bounds.LPR.Estimate call.
	rootLPR time.Duration
}

// setup generates the workload's rows, serializes each to OPB and computes
// its references.
func setup(w workload) ([]instance, error) {
	rows, err := harness.Instances(w.families, w.scale)
	if err != nil {
		return nil, err
	}
	if w.dropLast != "" {
		last := -1
		for i, r := range rows {
			if r.Family == w.dropLast {
				last = i
			}
		}
		if last >= 0 {
			rows = append(rows[:last:last], rows[last+1:]...)
		}
	}
	out := make([]instance, 0, len(rows))
	for _, r := range rows {
		in := instance{name: r.Name, text: opb.WriteString(r.Prob)}
		if w.needOptimum {
			m := milp.Solve(r.Prob, milp.Options{TimeLimit: w.limit, MaxNodes: 2_000_000})
			if m.Status != milp.StatusOptimal {
				return nil, fmt.Errorf("%s: reference optimum not proved (milp %v)", r.Name, m.Status)
			}
			in.optimum = m.Best
		}
		if r.Prob.HasObjective() {
			in.rootLB, in.rootLPR = rootBound(r.Prob)
			in.hasLB = true
		}
		out = append(out, in)
	}
	return out, nil
}

// rootBound returns a root LPR lower bound on p's objective and the CPU
// time the estimation took. Nothing is assigned, so the bound covers every
// variable and only the objective offset is added.
func rootBound(p *pb.Problem) (int64, time.Duration) {
	e := engine.New(p)
	red := bounds.Extract(e)
	clock := newSolveClock(true)
	defer clock.release()
	start := clock.now()
	res := bounds.LPR{MaxIter: rootLPRIter}.Estimate(e, red, p.Cost, p.TotalCost()+1, bounds.Budget{})
	return res.Bound + p.CostOffset, clock.now() - start
}
