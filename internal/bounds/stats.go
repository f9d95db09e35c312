package bounds

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cuts"
)

// ProcStats aggregates per-estimator observability for one lower-bound
// procedure over a run: call volume, wall-clock cost, bound strength, and
// failure/incompleteness counts. The search records one entry per estimator
// name ("lpr", "lgr", "mis", "plain") plus the fallback rung's usage.
type ProcStats struct {
	// Calls counts estimation calls (including failed ones).
	Calls int64
	// Time accumulates wall-clock spent inside Estimate.
	Time time.Duration
	// BoundSum accumulates finite returned bounds; BoundSum/Calls is the
	// mean bound strength. Infeasibility bounds (InfBound) are excluded and
	// counted in Infinite instead, so one hopeless node cannot drown the
	// average.
	BoundSum int64
	// MaxBound is the largest finite bound returned.
	MaxBound int64
	// Infinite counts calls that proved the node infeasible (InfBound).
	Infinite int64
	// Incomplete counts calls that hit their iteration or wall-clock budget
	// (sound, merely weaker bounds).
	Incomplete int64
	// Failed counts hard failures (numerical corruption, solver errors).
	Failed int64
	// Panics counts the subset of Failed that were recovered panics.
	Panics int64
	// Prunes counts calls whose bound triggered a bound conflict.
	Prunes int64
}

// MeanBound returns the average finite bound per successful call (0 when no
// finite bound was ever produced).
func (p *ProcStats) MeanBound() float64 {
	ok := p.Calls - p.Failed - p.Infinite
	if ok <= 0 {
		return 0
	}
	return float64(p.BoundSum) / float64(ok)
}

// MeanTime returns the average wall-clock per call.
func (p *ProcStats) MeanTime() time.Duration {
	if p.Calls == 0 {
		return 0
	}
	return p.Time / time.Duration(p.Calls)
}

// Stats is the bound-pipeline observability block: reduced-problem
// construction cost plus one ProcStats per estimator, and the LP
// warm-start counters when LPR ran.
type Stats struct {
	// Incremental reports whether the persistent Reducer ran (every solve
	// that bounds; false only for LBNone, which never reduces).
	Incremental bool
	// Reduces counts reduced-problem constructions; ReduceTime their total
	// wall-clock cost.
	Reduces    int64
	ReduceTime time.Duration

	// Warm-start counters (LPR only).
	//
	// WarmSolves counts LP solves that reused the previous basis;
	// ColdSolves counts from-scratch solves (first node, invalidations, and
	// warm attempts that fell back); WarmFallbacks is the subset of
	// ColdSolves where a warm start was attempted but abandoned (dimension
	// mapping too poor, numerical trouble, corrupted basis).
	WarmSolves    int64
	ColdSolves    int64
	WarmFallbacks int64

	// Cuts is the cut-pool observability block (zero when LPR ran without a
	// pool): separation rounds, cuts separated/pooled/pruned, install volume.
	Cuts cuts.Counters

	// Per maps estimator name to its aggregate.
	Per map[string]*ProcStats
}

// Clone returns a deep copy: the Per map and its ProcStats entries are
// duplicated, so the copy can be handed to another goroutine (the live
// metrics registry) or frozen into a Result while the original keeps
// mutating.
func (s Stats) Clone() Stats {
	out := s
	if s.Per != nil {
		out.Per = make(map[string]*ProcStats, len(s.Per))
		for name, p := range s.Per {
			cp := *p
			out.Per[name] = &cp
		}
	}
	return out
}

// Proc returns (allocating on demand) the ProcStats for name.
func (s *Stats) Proc(name string) *ProcStats {
	if s.Per == nil {
		s.Per = make(map[string]*ProcStats, 4)
	}
	p := s.Per[name]
	if p == nil {
		p = &ProcStats{}
		s.Per[name] = p
	}
	return p
}

// Record folds one estimation call into the per-estimator aggregate.
func (s *Stats) Record(name string, res Result, elapsed time.Duration, panicked bool) {
	p := s.Proc(name)
	p.Calls++
	p.Time += elapsed
	switch {
	case panicked:
		p.Failed++
		p.Panics++
	case res.Failed:
		p.Failed++
	case res.Bound >= InfBound:
		p.Infinite++
	default:
		p.BoundSum += res.Bound
		if res.Bound > p.MaxBound {
			p.MaxBound = res.Bound
		}
	}
	if res.Incomplete {
		p.Incomplete++
	}
}

// Names returns the estimator names present, sorted.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.Per))
	for n := range s.Per {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders a compact one-line-per-estimator summary for logs and the
// CLI's "-stats" output.
func (s *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "reduce: %d calls %v", s.Reduces, s.ReduceTime.Round(time.Microsecond))
	if s.WarmSolves+s.ColdSolves > 0 {
		fmt.Fprintf(&sb, "; lp: %d warm %d cold (%d fallbacks)",
			s.WarmSolves, s.ColdSolves, s.WarmFallbacks)
	}
	if s.Cuts.Rounds > 0 {
		fmt.Fprintf(&sb, "; cuts: %d sep %d active %d pruned (%d rounds, %d applied, %d dup, %v)",
			s.Cuts.Separated, s.Cuts.Active, s.Cuts.Pruned,
			s.Cuts.Rounds, s.Cuts.Applied, s.Cuts.Duplicates,
			s.Cuts.SepTime.Round(time.Microsecond))
	}
	for _, n := range s.Names() {
		p := s.Per[n]
		fmt.Fprintf(&sb, "\n%-5s calls=%d time=%v mean=%v meanBound=%.1f prunes=%d inf=%d incomplete=%d failed=%d panics=%d",
			n, p.Calls, p.Time.Round(time.Microsecond), p.MeanTime().Round(time.Microsecond),
			p.MeanBound(), p.Prunes, p.Infinite, p.Incomplete, p.Failed, p.Panics)
	}
	return sb.String()
}

// TotalTime returns the wall-clock spent across reduction and all
// estimators (the bound pipeline's share of the solve).
func (s *Stats) TotalTime() time.Duration {
	t := s.ReduceTime
	for _, p := range s.Per {
		t += p.Time
	}
	return t
}

// TotalCalls returns the estimation call count across estimators.
func (s *Stats) TotalCalls() int64 {
	var c int64
	for _, p := range s.Per {
		c += p.Calls
	}
	return c
}
