package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/opb"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/share"
	"repro/internal/verify"
)

// outcome is one timed solve and what the benchmark learned about it.
type outcome struct {
	// solve runs from OPB text to the returned answer and parse is its
	// opb.Parse part, both on the workload's clock (see solveClock).
	solve time.Duration
	parse time.Duration
	check time.Duration // verify.Check, outside the timed path
	// firstInc / lastInc are the stamps of the first and of the last
	// improving OnIncumbent call, from the start of the solve on the same
	// clock; zero when no callback fired.
	firstInc, lastInc time.Duration
	// ubAtDeadline is the best incumbent reported at or before the
	// deadline, on the wall clock the deadline is set in; hasUB reports
	// whether there was one.
	ubAtDeadline int64
	hasUB        bool

	solved bool   // proved optimal, or SAT on an objective-free instance
	err    string // non-empty when the answer is wrong or the solve failed

	stats   core.Stats // summed over the members of a race
	board   share.Stats
	members int
	rootLB  int64
	hasLB   bool
}

// incumbents stamps OnIncumbent callbacks; members of a race call it
// concurrently.
type incumbents struct {
	mu        sync.Mutex
	clock     solveClock
	start     time.Duration
	wallStart time.Time
	deadline  time.Duration
	first     time.Duration
	last      time.Duration
	best      int64
	seen      bool
	atDL      int64
	hasAtDL   bool
}

func (r *incumbents) note(cost int64) {
	t := r.clock.now() - r.start
	inTime := time.Since(r.wallStart) <= r.deadline
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seen {
		r.first = t
	}
	if !r.seen || cost < r.best {
		r.best, r.last, r.seen = cost, t, true
	}
	if inTime && (!r.hasAtDL || cost < r.atDL) {
		r.atDL, r.hasAtDL = cost, true
	}
}

// solveOne parses the instance's OPB text, solves it under w's
// configuration and checks the answer. Only parse and solve are timed.
// tamper, when non-nil, edits the returned witness before the check (tests
// use it to prove the check is live).
func solveOne(w workload, in instance, tamper func([]bool)) (o outcome) {
	o.rootLB, o.hasLB = in.rootLB, in.hasLB
	var res core.Result
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Sprintf("%s: panic: %v", in.name, r)
		}
	}()
	clock := newSolveClock(!w.race)
	defer clock.release()
	start := clock.now()
	p, err := opb.Parse(strings.NewReader(in.text))
	o.parse = clock.now() - start
	if err != nil {
		o.err = fmt.Sprintf("%s: parse: %v", in.name, err)
		return o
	}
	// The solver's deadline runs from here, on the wall clock.
	inc := &incumbents{clock: clock, start: start, wallStart: time.Now(), deadline: w.limit}
	if w.race {
		pr := race(p, w.limit, inc.note)
		res = pr.Result
		o.board, o.members = pr.Board, len(pr.Members)
		for _, m := range pr.Members {
			addStats(&o.stats, &m.Stats)
		}
	} else {
		res = core.Solve(p, core.Options{
			Strategy:             core.StrategyBranchBound,
			LowerBound:           core.LBLPR,
			TimeLimit:            w.limit,
			CardinalityInference: true,
			OnIncumbent:          inc.note,
		})
		o.stats = res.Stats
	}
	o.solve = clock.now() - start

	inc.mu.Lock()
	o.firstInc, o.lastInc = inc.first, inc.last
	o.ubAtDeadline, o.hasUB = inc.atDL, inc.hasAtDL
	seen := inc.seen
	inc.mu.Unlock()
	if res.HasSolution && !seen {
		// A SAT answer reports no incumbent callback: its witness arrives
		// with the returned answer.
		o.firstInc, o.lastInc = o.solve, o.solve
	}
	o.solved = res.Status == core.StatusOptimal || res.Status == core.StatusSatisfiable
	if tamper != nil && res.HasSolution {
		tamper(res.Values)
	}
	checkStart := time.Now()
	o.err = checkAnswer(w, in, p, res)
	o.check = time.Since(checkStart)
	return o
}

// race runs portfolio.DefaultConfigs plus one local-search member, every
// member under the same time limit, on at most two goroutines.
func race(p *pb.Problem, limit time.Duration, note func(int64)) portfolio.Result {
	configs := portfolio.DefaultConfigs()
	for i := range configs {
		configs[i].Options.TimeLimit = limit
		configs[i].Options.OnIncumbent = note
	}
	lsm := portfolio.LSConfig("ls", 101, 0)
	lsm.LS.TimeLimit = limit
	lsm.LS.OnIncumbent = note
	// The harness's mixed-portfolio order: local search first, so its
	// incumbent is on the board before the exact members start.
	configs = append([]portfolio.Config{lsm}, configs...)
	return portfolio.SolveOpts(p, configs, portfolio.Options{MaxConcurrent: 2})
}

// checkAnswer returns why the answer is wrong, or "" when it is right.
func checkAnswer(w workload, in instance, p *pb.Problem, res core.Result) string {
	switch res.Status {
	case core.StatusError:
		return fmt.Sprintf("%s: solver error: %v", in.name, res.Err)
	case core.StatusUnsat:
		return fmt.Sprintf("%s: unsatisfiable, but every row is feasible by construction", in.name)
	}
	if !res.HasSolution {
		return ""
	}
	if len(res.Values) != p.NumVars {
		return fmt.Sprintf("%s: witness has %d values for %d variables", in.name, len(res.Values), p.NumVars)
	}
	rep := verify.Check(p, res.Values)
	switch {
	case !rep.Feasible:
		return fmt.Sprintf("%s: witness violates constraint %d", in.name, rep.ViolatedIdx)
	case rep.Objective != res.Best:
		return fmt.Sprintf("%s: reported cost %d, witness costs %d", in.name, res.Best, rep.Objective)
	case in.hasLB && res.Best < in.rootLB:
		return fmt.Sprintf("%s: cost %d below the root LP bound %d", in.name, res.Best, in.rootLB)
	case w.needOptimum && res.Status == core.StatusOptimal && res.Best != in.optimum:
		return fmt.Sprintf("%s: optimum %d, reference %d", in.name, res.Best, in.optimum)
	}
	return ""
}

// addStats sums the counters the benchmark reports.
func addStats(dst, s *core.Stats) {
	dst.Decisions += s.Decisions
	dst.Conflicts += s.Conflicts
	dst.BoundConflicts += s.BoundConflicts
	dst.BoundPrunes += s.BoundPrunes
	dst.Solutions += s.Solutions
	dst.Restarts += s.Restarts
	dst.Propagations += s.Propagations
	dst.LearnedClauses += s.LearnedClauses
	dst.BoundFallbacks += s.BoundFallbacks
	dst.Flips += s.Flips
	b, sb := &dst.Bounds, &s.Bounds
	b.Reduces += sb.Reduces
	b.ReduceTime += sb.ReduceTime
	b.WarmSolves += sb.WarmSolves
	b.ColdSolves += sb.ColdSolves
	b.WarmFallbacks += sb.WarmFallbacks
	b.Cuts.Rounds += sb.Cuts.Rounds
	b.Cuts.Separated += sb.Cuts.Separated
	b.Cuts.Applied += sb.Cuts.Applied
	b.Cuts.SepTime += sb.Cuts.SepTime
	for name, p := range sb.Per {
		q := b.Proc(name)
		q.Calls += p.Calls
		q.Time += p.Time
		q.Incomplete += p.Incomplete
		q.Prunes += p.Prunes
	}
	sh, ss := &dst.Sharing, &s.Sharing
	sh.ClausesImported += ss.ClausesImported
	sh.ForeignIncumbents += ss.ForeignIncumbents
	sh.ForeignRejected += ss.ForeignRejected
	sh.UBInterrupts += ss.UBInterrupts
	sh.ForeignUBPrunes += ss.ForeignUBPrunes
}

// loop is one closed-loop measurement: whole passes over the instances,
// each pass in a fresh seeded order.
type loop struct {
	outcomes []outcome
	elapsed  time.Duration
	// runtime/metrics deltas over the loop
	gcCPU, totalCPU float64 // cpu-seconds
	allocBytes      uint64
	heap            []uint64 // live heap samples
}

// maxLoop ends a loop that cannot reach minSolves, so one run stays well
// inside its process time limit.
const maxLoop = 100 * time.Second

// runLoop runs passes until the loop has lasted dur and holds at least
// minSolves solves; it always runs at least one pass.
func runLoop(w workload, insts []instance, rng *rand.Rand, dur time.Duration, minSolves int, tamper func([]bool)) *loop {
	l := &loop{}
	before := readRuntime()
	stop := make(chan struct{})
	heap := make(chan []uint64)
	go sampleLiveHeap(stop, heap)
	start := time.Now()
	for {
		for _, i := range rng.Perm(len(insts)) {
			l.outcomes = append(l.outcomes, solveOne(w, insts[i], tamper))
		}
		el := time.Since(start)
		if el >= maxLoop || (el >= dur && len(l.outcomes) >= minSolves) {
			break
		}
	}
	l.elapsed = time.Since(start)
	close(stop)
	l.heap = <-heap
	after := readRuntime()
	l.gcCPU = after.gcCPU - before.gcCPU
	l.totalCPU = after.totalCPU - before.totalCPU
	l.allocBytes = after.allocBytes - before.allocBytes
	return l
}

// add appends m's measurements to l.
func (l *loop) add(m *loop) {
	l.outcomes = append(l.outcomes, m.outcomes...)
	l.elapsed += m.elapsed
	l.gcCPU += m.gcCPU
	l.totalCPU += m.totalCPU
	l.allocBytes += m.allocBytes
	l.heap = append(l.heap, m.heap...)
}

type runtimeSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// sampleLiveHeap reads the live heap (the heap the latest GC marked
// reachable) every two milliseconds until stop closes, then sends the
// samples. Unlike the heap in use, the live heap does not depend on how
// much garbage waits for the next GC.
func sampleLiveHeap(stop <-chan struct{}, out chan<- []uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var samples []uint64
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		samples = append(samples, s[0].Value.Uint64())
		select {
		case <-stop:
			out <- samples
			return
		case <-t.C:
		}
	}
}
