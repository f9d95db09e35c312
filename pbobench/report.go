package main

import (
	"math"
	"sort"
	"time"
)

// result is everything one benchmark run measured.
type result struct {
	w      workload
	insts  []instance
	setups []time.Duration
	// main is the measured loop: untraced with --trace 0, profiled with
	// --trace 1.
	main *loop
	// base is the untraced loop a traced run measures first, for the
	// tracing overhead (nil with --trace 0).
	base *loop
	// cpu counts leaf-frame CPU samples by layer (traced runs).
	cpu map[string]float64
}

// metricSpec names one reported metric, its unit and how it is computed.
type metricSpec struct {
	name, unit string
	value      func(r *result) float64
}

// endToEnd are the metrics a user of the solver sees, reported by
// untraced runs. Each is nonzero on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", func(r *result) float64 { return medianDur(r.setups).Seconds() }},
	{"solves_per_s", "1/s", func(r *result) float64 { return r.main.solvesPerSec() }},
	{"solve_ms_p50", "ms", func(r *result) float64 { return r.main.solvePct(0.5) }},
	{"solve_ms_p90", "ms", func(r *result) float64 { return r.main.solvePct(0.9) }},
	{"t_last_inc_ms_p50", "ms", func(r *result) float64 {
		return r.main.pct(0.5, func(o *outcome) (float64, bool) { return ms(o.lastInc), o.lastInc > 0 })
	}},
	{"deadline_ratio_p50", "ratio", func(r *result) float64 {
		return r.main.pct(0.5, func(o *outcome) (float64, bool) {
			return float64(o.solve) / float64(r.w.limit), true
		})
	}},
	{"peak_heap_mb", "MB", func(r *result) float64 {
		// The 99th percentile of the sampled live heap: the largest
		// sample hangs on whether a GC happened to run inside the one
		// largest allocation of the run.
		h := append([]uint64(nil), r.main.heap...)
		sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
		return float64(h[len(h)*99/100]) / (1 << 20)
	}},
}

// perLayer are the counters and timings of single layers, reported by
// traced runs. Counts and times are per solve unless the name says
// otherwise; a layer a workload bypasses reads 0.
var perLayer = []metricSpec{
	// answers
	{"solved_frac", "frac", func(r *result) float64 {
		return r.main.frac(func(o *outcome) bool { return o.solved })
	}},
	{"error_frac", "frac", func(r *result) float64 {
		return r.main.frac(func(o *outcome) bool { return o.err != "" })
	}},
	{"ub_gap_pct_p50", "%", func(r *result) float64 {
		return r.main.pct(0.5, func(o *outcome) (float64, bool) {
			if !o.hasUB || !o.hasLB {
				return 0, false
			}
			return 100 * float64(o.ubAtDeadline-o.rootLB) / math.Max(1, math.Abs(float64(o.ubAtDeadline))), true
		})
	}},
	// opb, verify
	{"opb.parse_ms", "ms/solve", perSolveMs(func(o *outcome) time.Duration { return o.parse })},
	{"verify.check_ms", "ms/solve", perSolveMs(func(o *outcome) time.Duration { return o.check })},
	// bounds
	{"bounds.estimate_ms", "ms/solve", perSolveMs(func(o *outcome) time.Duration { return o.stats.Bounds.TotalTime() - o.stats.Bounds.ReduceTime })},
	{"bounds.ms_per_call", "ms", func(r *result) float64 {
		calls := r.main.sum(func(o *outcome) float64 { return float64(o.stats.Bounds.TotalCalls()) })
		if calls == 0 {
			return 0
		}
		return r.main.sum(func(o *outcome) float64 { return ms(o.stats.Bounds.TotalTime() - o.stats.Bounds.ReduceTime) }) / calls
	}},
	{"bounds.reduce_ms", "ms/solve", perSolveMs(func(o *outcome) time.Duration { return o.stats.Bounds.ReduceTime })},
	{"bounds.calls", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.TotalCalls() })},
	{"bounds.prune_rate", "frac", func(r *result) float64 {
		return r.main.ratio(func(o *outcome) float64 { return float64(o.stats.BoundPrunes) },
			func(o *outcome) float64 { return float64(o.stats.Bounds.TotalCalls()) })
	}},
	{"bounds.incomplete", "count/solve", perSolve(func(o *outcome) int64 {
		var n int64
		for _, p := range o.stats.Bounds.Per {
			n += p.Incomplete
		}
		return n
	})},
	{"bounds.fallbacks", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.BoundFallbacks })},
	{"bounds.root_lpr_ms", "ms", func(r *result) float64 {
		var sum time.Duration
		n := 0
		for _, in := range r.insts {
			if in.hasLB {
				sum += in.rootLPR
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return ms(sum) / float64(n)
	}},
	// lp
	{"lp.warm", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.WarmSolves })},
	{"lp.cold", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.ColdSolves })},
	{"lp.warm_ratio", "frac", func(r *result) float64 {
		return r.main.ratio(func(o *outcome) float64 { return float64(o.stats.Bounds.WarmSolves) },
			func(o *outcome) float64 { return float64(o.stats.Bounds.WarmSolves + o.stats.Bounds.ColdSolves) })
	}},
	{"lp.warm_fallbacks", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.WarmFallbacks })},
	// cuts
	{"cuts.rounds", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.Cuts.Rounds })},
	{"cuts.separated", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.Cuts.Separated })},
	{"cuts.applied", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Bounds.Cuts.Applied })},
	{"cuts.sep_ms", "ms/solve", perSolveMs(func(o *outcome) time.Duration { return o.stats.Bounds.Cuts.SepTime })},
	// engine, core
	{"engine.propagations", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Propagations })},
	{"engine.props_per_s", "1/s", perSec(func(o *outcome) int64 { return o.stats.Propagations })},
	{"engine.learned", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.LearnedClauses })},
	{"core.decisions", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Decisions })},
	{"core.decisions_per_s", "1/s", perSec(func(o *outcome) int64 { return o.stats.Decisions })},
	{"core.conflicts", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Conflicts })},
	{"core.bound_conflicts", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.BoundConflicts })},
	{"core.restarts", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Restarts })},
	{"core.incumbents", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Solutions })},
	{"core.t_first_inc_ms_p50", "ms", func(r *result) float64 {
		return r.main.pct(0.5, func(o *outcome) (float64, bool) { return ms(o.firstInc), o.firstInc > 0 })
	}},
	// ls, share, portfolio
	{"ls.flips", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Flips })},
	{"ls.flips_per_s", "1/s", perSec(func(o *outcome) int64 { return o.stats.Flips })},
	{"share.clauses_published", "count/solve", perSolve(func(o *outcome) int64 { return o.board.ClausesPublished })},
	{"share.clauses_imported", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Sharing.ClausesImported })},
	{"share.clauses_lapped", "count/solve", perSolve(func(o *outcome) int64 { return o.board.ClausesLapped })},
	{"share.incumbents", "count/solve", perSolve(func(o *outcome) int64 { return o.board.Incumbents })},
	{"share.foreign_adopted", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Sharing.ForeignIncumbents })},
	{"share.foreign_rejected", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Sharing.ForeignRejected })},
	{"share.ub_interrupts", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Sharing.UBInterrupts })},
	{"share.foreign_prunes", "count/solve", perSolve(func(o *outcome) int64 { return o.stats.Sharing.ForeignUBPrunes })},
	{"portfolio.members", "count/solve", perSolve(func(o *outcome) int64 { return int64(o.members) })},
	// runtime
	{"runtime.gc_cpu_share", "frac", func(r *result) float64 {
		if r.main.totalCPU <= 0 {
			return 0
		}
		return r.main.gcCPU / r.main.totalCPU
	}},
	{"runtime.alloc_mb", "MB/solve", func(r *result) float64 {
		return float64(r.main.allocBytes) / (1 << 20) / float64(len(r.main.outcomes))
	}},
	// CPU profile of the traced loop
	{"engine.cpu_share", "frac", cpuShare("engine")},
	{"core.cpu_share", "frac", cpuShare("core")},
	{"bounds.cpu_share", "frac", cpuShare("bounds")},
	{"lp.cpu_share", "frac", cpuShare("lp")},
	{"cuts.cpu_share", "frac", cpuShare("cuts")},
	{"ls.cpu_share", "frac", cpuShare("ls")},
	{"share.cpu_share", "frac", cpuShare("share")},
	{"portfolio.cpu_share", "frac", cpuShare("portfolio")},
	{"runtime.cpu_share", "frac", cpuShare("runtime")},
	{"trace.overhead_pct", "%", func(r *result) float64 {
		base := r.base.solvesPerSec()
		return 100 * (base - r.main.solvesPerSec()) / base
	}},
}

func cpuShare(layer string) func(r *result) float64 {
	return func(r *result) float64 {
		var total float64
		for _, n := range r.cpu {
			total += n
		}
		if total == 0 {
			return 0
		}
		return r.cpu[layer] / total
	}
}

func perSolve(f func(o *outcome) int64) func(r *result) float64 {
	return func(r *result) float64 {
		return r.main.sum(func(o *outcome) float64 { return float64(f(o)) }) / float64(len(r.main.outcomes))
	}
}

func perSolveMs(f func(o *outcome) time.Duration) func(r *result) float64 {
	return func(r *result) float64 {
		return r.main.sum(func(o *outcome) float64 { return ms(f(o)) }) / float64(len(r.main.outcomes))
	}
}

// perSec is a layer's rate over the timed solves.
func perSec(f func(o *outcome) int64) func(r *result) float64 {
	return func(r *result) float64 {
		return r.main.sum(func(o *outcome) float64 { return float64(f(o)) }) / r.main.solveSeconds()
	}
}

func (l *loop) sum(f func(o *outcome) float64) float64 {
	var s float64
	for i := range l.outcomes {
		s += f(&l.outcomes[i])
	}
	return s
}

func (l *loop) ratio(num, den func(o *outcome) float64) float64 {
	d := l.sum(den)
	if d == 0 {
		return 0
	}
	return l.sum(num) / d
}

func (l *loop) frac(f func(o *outcome) bool) float64 {
	return l.ratio(func(o *outcome) float64 {
		if f(o) {
			return 1
		}
		return 0
	}, func(*outcome) float64 { return 1 })
}

func (l *loop) solveSeconds() float64 {
	return l.sum(func(o *outcome) float64 { return o.solve.Seconds() })
}

// solvesPerSec is the closed loop's throughput over the timed solves
// (answer checks excluded).
func (l *loop) solvesPerSec() float64 {
	return float64(len(l.outcomes)) / l.solveSeconds()
}

func (l *loop) solvePct(q float64) float64 {
	return l.pct(q, func(o *outcome) (float64, bool) { return ms(o.solve), true })
}

// pct is the nearest-rank q-quantile of f over the outcomes f accepts
// (0 when it accepts none). With q = 0.9 and n samples, n/10 samples lie
// beyond it.
func (l *loop) pct(q float64, f func(o *outcome) (float64, bool)) float64 {
	var xs []float64
	for i := range l.outcomes {
		if v, ok := f(&l.outcomes[i]); ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
