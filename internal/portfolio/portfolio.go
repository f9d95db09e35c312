// Package portfolio runs several bsolo configurations concurrently on the
// same instance and returns the first conclusive answer — the natural
// fine-tuning direction the paper's conclusion gestures at: no single lower
// bound method wins everywhere (Table 1's per-family spread), so racing
// them hedges the choice at the price of cores.
//
// By default the race is *cooperative* (see internal/share and DESIGN.md §9):
// members publish every incumbent to a shared board — instantly tightening
// the paper's `path + lower ≥ upper` pruning in every other member — and
// exchange short, low-LBD learned clauses through a bounded ring, imported at
// restart/backjump-to-root boundaries. Options.NoSharing restores the
// pre-cooperative isolated race, which combined with MaxConcurrent=1 is fully
// deterministic (members run sequentially in config order, and each member's
// search contains no other nondeterminism).
//
// Every worker receives its own engine state; the input problem is shared
// read-only. When a worker proves optimality (or unsatisfiability, or
// satisfiability for objective-free instances) the others are cancelled.
// If every worker hits its budget, the best incumbent across workers is
// returned.
//
// Workers are panic-isolated: a member that crashes (a genuine bug, or an
// injected fault in tests) ends as core.StatusError and merely degrades the
// race — the surviving members still produce the answer. Crash details are
// reported in Result.Errors.
package portfolio

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ls"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/share"
	"repro/internal/wbo"
)

// The share.Member handle is the concrete Sharer the portfolio hands to each
// member's solver — and the concrete incumbent Pool it hands to local-search
// members; asserting both here keeps the import direction one-way
// (portfolio → core + ls + share, never core/ls → share).
var (
	_ core.Sharer = (*share.Member)(nil)
	_ ls.Pool     = (*share.Member)(nil)
)

// Config is one portfolio member.
type Config struct {
	// Name labels the member in the result.
	Name string
	// Options configures the member's solver. Cancel and Share are managed
	// by Solve and must be nil. Ignored when LS is set.
	Options core.Options
	// LS, when non-nil, makes this member a stochastic local-search worker
	// (internal/ls) instead of a branch-and-bound solver: a UB-only member
	// that contributes incumbents (and, on objective-free instances, a
	// verified SAT witness) but can never prove optimality or
	// unsatisfiability — the winner logic treats its outcomes accordingly.
	// Share/Cancel/Audit/Trace/Live are managed by Solve and must be nil.
	LS *ls.Options
	// CoreGuided, when non-nil, makes this member a core-guided WBO solver
	// (internal/wbo) racing the branch-and-bound members. The portfolio's
	// problem MUST be the instance's Builder() compilation (original
	// variables first, then one selector per soft constraint, in order):
	// witnesses are mapped into that space via Instance.ExtendedWitness and
	// re-verified against the compiled problem before they can win the race
	// or reach the board — an inconsistent instance/problem pair demotes
	// every claim to the inconclusive StatusLimit instead of poisoning the
	// race (the claim verifier every member's outcome passes through).
	// Cancel is managed by Solve; the board's Share handle is used only for
	// verified incumbent publication and is never passed into the wbo
	// sub-solves.
	CoreGuided *CoreGuided
}

// CoreGuided configures a core-guided portfolio member.
type CoreGuided struct {
	// Instance is the WBO instance whose Builder() compilation the
	// portfolio is racing on.
	Instance *wbo.Instance
	// Options configure the core-guided loop. Cancel is managed by Solve
	// and must be nil.
	Options wbo.Options
}

// UBOnly reports whether the member can contribute only upper bounds
// (no exhaustion proofs).
func (c Config) UBOnly() bool { return c.LS != nil }

// DefaultConfigs returns the paper's four bsolo columns as portfolio
// members. Each member carries an explicit distinct seed and a small random
// branching frequency: the seeds diversify the race (members explore
// different regions even on instances where the bound methods behave alike)
// while keeping every run of the same member bit-reproducible across
// processes — the engine contains no other randomness.
func DefaultConfigs() []Config {
	const diversify = 0.02
	return []Config{
		{Name: "plain", Options: core.Options{LowerBound: core.LBNone,
			Seed: 1, RandomBranchFreq: diversify}},
		{Name: "mis", Options: core.Options{LowerBound: core.LBMIS, CardinalityInference: true,
			Seed: 2, RandomBranchFreq: diversify}},
		{Name: "lgr", Options: core.Options{LowerBound: core.LBLGR, CardinalityInference: true,
			Seed: 3, RandomBranchFreq: diversify}},
		{Name: "lpr", Options: core.Options{LowerBound: core.LBLPR, CardinalityInference: true,
			Seed: 4, RandomBranchFreq: diversify}},
	}
}

// LSConfig returns one local-search member for a mixed portfolio. The seed
// diversifies it from other LS members; maxFlips bounds its work (0 = run
// until cancelled — the usual mixed-portfolio setting, where a B&B member's
// proof ends the race).
func LSConfig(name string, seed int64, maxFlips int64) Config {
	if name == "" {
		name = "ls"
	}
	return Config{Name: name, LS: &ls.Options{Seed: seed, MaxFlips: maxFlips}}
}

// Options configures the portfolio run as a whole (per-member limits live in
// each Config's solver options; a member's TimeLimit counts from the start of
// the race, not from when the member is scheduled). The zero value is the
// default cooperative race: sharing on, concurrency capped at GOMAXPROCS.
// Every front end (harness columns, bsolo, bsolvd) runs its solve through
// SolveOpts, a solo solver as a one-member race.
type Options struct {
	// NoSharing disconnects the board entirely: members race in isolation.
	// Required for the deterministic mode, sharing ablations and solo solves.
	NoSharing bool
	// Board is the fresh board the members join, built by the caller, who
	// may seed it with SeedIncumbent and read it mid-race; nil builds one.
	// Ignored with NoSharing.
	Board *share.Board
	// MaxConcurrent caps how many members run simultaneously; 0 selects
	// GOMAXPROCS. Members beyond the cap wait their turn in config order.
	// MaxConcurrent=1 runs the members strictly sequentially in config
	// order, which with NoSharing is fully deterministic.
	MaxConcurrent int
	// Stop, when non-nil, cancels every member as soon as the channel is
	// closed (the CLI's SIGINT/SIGTERM handler); the best incumbent found so
	// far is stitched together (StatusLimit), as when all members hit their
	// budgets.
	Stop <-chan struct{}
	// Audit, when non-nil, attaches the invariant auditor to every member:
	// each solver replays its learned clauses, bound conflicts, imports and
	// incumbents against the original problem into this (internally locked)
	// auditor. Expensive; meant for the differential fuzzer and debugging.
	Audit *audit.Auditor
	// Trace, when non-nil, records structured search events from every
	// member into the shared ring, each stamped with the member's name
	// (obs.Tracer.Named; under a named Trace, "<name>/<member>"). Nil keeps
	// the members' hot paths trace-free.
	Trace *obs.Tracer
	// Registry, when non-nil, receives one live metrics source per member
	// (registered under the member name, in config order) plus the board's
	// snapshot function, so a concurrent scraper (`bsolo -debug-addr`) sees
	// the full roster and tear-free per-member counters mid-race.
	Registry *obs.Registry
}

// MemberResult is one member's outcome, reported in config order.
type MemberResult struct {
	// Name is the member's label (Config.Name or the lower-bound method).
	Name string
	// UBOnly marks a member that can contribute only upper bounds (local
	// search): its terminal status is never an exhaustion proof.
	UBOnly bool
	core.Result
}

// Result is the portfolio outcome.
type Result struct {
	core.Result
	// Winner names the member that produced the result ("" when no member
	// finished and the best incumbent was stitched together).
	Winner string
	// Errors maps member names to their crash (recovered panic) when they
	// ended in core.StatusError. Nil when every member ran to completion.
	Errors map[string]error
	// Members holds every member's individual outcome, in config order —
	// including the losers, whose stats carry the sharing counters.
	Members []MemberResult
	// Concurrency is the member-level parallelism the run actually used
	// (min of MaxConcurrent, GOMAXPROCS and the member count).
	Concurrency int
	// Sharing reports whether the cooperative board was connected.
	Sharing bool
	// Board is the board's final global snapshot (zero when !Sharing). Its
	// BestOwner names the member whose solution the certificate carries —
	// distinct from Winner when the prover adopted a foreign incumbent.
	Board share.Stats
}

// TotalConflicts sums BCP + bound conflicts across every member — the
// portfolio-level work measure the sharing benchmarks compare.
func (r *Result) TotalConflicts() int64 {
	var n int64
	for _, m := range r.Members {
		n += m.Stats.Conflicts + m.Stats.BoundConflicts
	}
	return n
}

// Crashed reports that every member ended in core.StatusError: the race
// produced no outcome at all, so its StatusLimit is a crash, not a budget.
func (r *Result) Crashed() bool {
	return len(r.Members) > 0 && len(r.Errors) == len(r.Members)
}

// TotalDecisions sums decisions across every member.
func (r *Result) TotalDecisions() int64 {
	var n int64
	for _, m := range r.Members {
		n += m.Stats.Decisions
	}
	return n
}

// Solve races the given configurations cooperatively with default options.
// Limits in each member's Options still apply individually (set a common
// TimeLimit to bound the whole run: every member's TimeLimit becomes an
// absolute deadline when the race starts, so a member queued behind others
// runs with the time that remains, or not at all).
func Solve(p *pb.Problem, configs []Config) Result {
	return SolveOpts(p, configs, Options{})
}

// SolveOpts races the given configurations under the given portfolio
// options.
func SolveOpts(p *pb.Problem, configs []Config, opts Options) Result {
	start := time.Now() // every member's TimeLimit counts from here
	if len(configs) == 0 {
		configs = DefaultConfigs()
	}
	maxConc := opts.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
	}
	maxConc = max(1, min(maxConc, len(configs)))

	// The board and the per-member handles are created up front, in config
	// order, so member ids are deterministic and every member can see
	// incumbents published before it was scheduled.
	var board *share.Board
	handles := make([]*share.Member, len(configs)) // all nil with NoSharing
	if !opts.NoSharing {
		board = opts.Board
		if board == nil {
			board = share.NewBoard()
		}
		for i, cfg := range configs {
			if cfg.UBOnly() || cfg.CoreGuided != nil {
				// UB-only and core-guided members neither publish nor drain
				// clauses; joining with clauses opted out keeps the ring's
				// cursor/lap stats scoped to actual consumers.
				handles[i] = board.JoinNoClauses(cfg.name())
			} else {
				handles[i] = board.Join(cfg.name())
			}
		}
	}

	// Observability wiring: one live metrics source per member (registered
	// up front so scrapers see the full roster before any member publishes),
	// the board's snapshot function, and a name-stamped tracer handle each.
	lives := make([]*obs.Live, len(configs)) // all nil without a Registry
	if opts.Registry != nil {
		for i, cfg := range configs {
			lives[i] = &obs.Live{}
			opts.Registry.RegisterSolver(cfg.name(), lives[i])
		}
		if board != nil {
			opts.Registry.RegisterBoard(func() obs.BoardMetrics {
				return BoardMetrics(board.Snapshot())
			})
		}
	}

	cancel := make(chan struct{})
	var cancelOnce sync.Once
	closeCancel := func() { cancelOnce.Do(func() { close(cancel) }) }
	if opts.Stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-opts.Stop:
				closeCancel()
			case <-done:
			}
		}()
	}

	conclusive := func(s core.Status) bool {
		return s == core.StatusOptimal || s == core.StatusSatisfiable || s == core.StatusUnsat
	}
	type outcome struct {
		idx int
		res core.Result
	}
	results := make(chan outcome, len(configs))

	// A fixed pool of maxConc workers pulls member indices from an ordered
	// queue: with maxConc=1 the members run strictly sequentially in config
	// order (the deterministic mode); with more workers the queue merely
	// bounds the parallelism at the configured cap.
	queue := make(chan int, len(configs))
	for i := range configs {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < maxConc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res := runMember(p, configs[i], start, cancel, handles[i], lives[i], &opts)
				if conclusive(res.Status) {
					// Stop the rest before this worker dequeues another member,
					// so sequential mode stays deterministic.
					closeCancel()
				}
				results <- outcome{i, res}
			}
		}()
	}

	var best Result
	gotBest := false
	var winner *Result
	var errs map[string]error
	members := make([]MemberResult, len(configs))
	for i := 0; i < len(configs); i++ {
		oc := <-results
		name := configs[oc.idx].name()
		members[oc.idx] = MemberResult{Name: name, UBOnly: configs[oc.idx].UBOnly(), Result: oc.res}
		if oc.res.Status == core.StatusError {
			// Panic isolation: record the crash and keep consuming results —
			// the race degrades instead of aborting.
			if errs == nil {
				errs = map[string]error{}
			}
			errs[name] = oc.res.Err
			continue
		}
		if winner == nil && conclusive(oc.res.Status) {
			winner = &Result{Result: oc.res, Winner: name} // its worker stopped the rest
		}
		// Track the best incumbent for the all-limits case.
		if oc.res.HasSolution && (!gotBest || !best.HasSolution || oc.res.Best < best.Best) {
			best = Result{Result: oc.res, Winner: name}
			gotBest = true
		}
	}
	wg.Wait()
	closeCancel()

	finalize := func(r Result) Result {
		r.Errors = errs
		r.Members = members
		r.Concurrency = maxConc
		if board != nil {
			r.Sharing = true
			r.Board = board.Snapshot()
		}
		return r
	}
	if winner != nil {
		return finalize(*winner)
	}
	if gotBest {
		best.Status = core.StatusLimit
		return finalize(best)
	}
	return finalize(Result{Result: core.Result{Status: core.StatusLimit}})
}

// SeedIncumbent publishes a known incumbent (bsolvd's cached one) to a fresh
// board, under a "warm" member identity, before the race that joins it
// (Options.Board) starts. The assignment must have the right length and
// satisfy every constraint, and the published cost is recomputed from the
// values — a corrupted cache entry fails verification and the board stays
// empty.
func SeedIncumbent(board *share.Board, p *pb.Problem, values []bool) bool {
	if board == nil || values == nil {
		return false
	}
	cost, ok := p.WitnessCost(values)
	if !ok {
		return false
	}
	// The seeder is incumbent-only: were it a clause member, its permanently
	// stalled ring cursor would (wrongly) show up in the lap accounting.
	return board.JoinNoClauses("warm").PublishIncumbent(cost, values)
}

// runMember executes one member behind the portfolio's only panic barrier,
// so a crash (including one injected at the "portfolio.worker" fault point,
// keyed by member name) becomes a StatusError outcome. The member's own
// TimeLimit counts from the race start: dequeued later, it runs with what
// remains, and with nothing left it does not start and reports StatusLimit
// with zero stats. The switch only makes the solver call and maps the outcome
// to a claim; every claim then passes the one verifier.
func runMember(p *pb.Problem, cfg Config, start time.Time, cancel <-chan struct{}, sh *share.Member, live *obs.Live, opts *Options) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			res = core.Result{
				Status: core.StatusError,
				Err:    fmt.Errorf("portfolio: member %q panicked: %v\n%s", cfg.name(), r, debug.Stack()),
			}
		}
	}()
	limit := cfg.timeLimit()
	if limit > 0 {
		if limit -= time.Since(start); limit <= 0 {
			return core.Result{Status: core.StatusLimit}
		}
	}
	fault.Fire("portfolio.worker", cfg.name())
	var c claim
	switch {
	case cfg.CoreGuided != nil:
		// The wbo sub-solves never see the board or the auditor, so no
		// foreign clause or incumbent can leak into the core extraction.
		opt := cfg.CoreGuided.Options
		opt.Cancel, opt.TimeLimit = cancel, limit
		c = coreGuidedClaim(p, cfg.CoreGuided.Instance, wbo.Solve(cfg.CoreGuided.Instance, opt))
	case cfg.LS != nil:
		opt := *cfg.LS
		opt.Cancel, opt.TimeLimit = cancel, limit
		if sh != nil {
			opt.Share = sh
		}
		if opts.Audit != nil {
			opt.Audit = opts.Audit
		}
		opt.Trace = opts.Trace.Named(cfg.name())
		if live != nil {
			opt.Live = live
		}
		lr := ls.Solve(p, opt)
		if lr.Err != nil {
			return core.Result{Status: core.StatusError, Err: lr.Err}
		}
		c.Status = core.StatusLimit
		if lr.Satisfiable {
			c.Status = core.StatusSatisfiable
		}
		c.HasSolution, c.Best, c.Values = lr.HasSolution, lr.Best, lr.Values
		c.Stats.Restarts = lr.Stats.Restarts
		c.Stats.Solutions = lr.Stats.Improvements
		c.Stats.Flips = lr.Stats.Flips
		if sh != nil {
			c.Stats.Sharing.IncumbentsPublished = lr.Stats.BoardPublished
			c.Stats.Sharing.IncumbentsWon = lr.Stats.BoardWon
			c.Stats.Sharing.ForeignIncumbents = lr.Stats.BoardImports
		}
	default:
		opt := cfg.Options
		opt.Cancel, opt.TimeLimit = cancel, limit
		if sh != nil {
			opt.Share = sh
		}
		if opts.Audit != nil {
			opt.Audit = opts.Audit
		}
		opt.Trace = opts.Trace.Named(cfg.name())
		if live != nil {
			// The registry-managed source wins; otherwise a Live handle set on
			// the member's own Options (the serving layer's per-job watchdog
			// heartbeat) is left in place instead of being clobbered with nil.
			opt.Live = live
		}
		c = claim{Result: core.Solve(p, opt), exact: true, hardUnsat: true}
	}
	res = verify(p, c)
	if cfg.CoreGuided != nil {
		// Publish and audit what branch-and-bound and local-search members
		// publish and audit from inside their own search.
		if res.HasSolution {
			opts.Audit.Incumbent(res.Best, res.Values)
			if sh != nil && sh.PublishIncumbent(res.Best, res.Values) {
				res.Stats.Sharing.IncumbentsPublished++
			}
		}
		switch {
		case res.Status == core.StatusOptimal:
			opts.Audit.Termination(audit.Claim{Optimal: true, Best: res.Best})
		case res.Status == core.StatusUnsat:
			opts.Audit.Termination(audit.Claim{Unsat: true})
		case res.Status == core.StatusLimit && res.HasSolution:
			opts.Audit.Termination(audit.Claim{UpperBound: true, Best: res.Best})
		}
	}
	return res
}

// claim is a member's outcome in the compiled problem's space before the
// verifier sees it: status, witness (Values), claimed cost (Best, including
// CostOffset), and what the member kind may prove. exact: the search is
// complete, so OPTIMAL may pass. hardUnsat: an UNSAT verdict is about the
// problem itself (always for branch and bound; for core-guided only with
// wbo's HardUnsat).
type claim struct {
	core.Result
	exact, hardUnsat bool
}

// coreGuidedClaim maps a wbo outcome into the compiled problem's space: the
// witness is lifted via ExtendedWitness and the claimed cost drops the
// instance offset, which lives outside the compiled objective. The compiled
// soft rows are always satisfiable via their selectors, so compiled-UNSAT is
// exactly wbo's HardUnsat.
func coreGuidedClaim(p *pb.Problem, in *wbo.Instance, r wbo.Result) claim {
	c := claim{exact: true, hardUnsat: r.HardUnsat}
	c.Status, c.Err, c.Stats.Conflicts = r.Status, r.Err, r.Conflicts
	if r.HasSolution && len(r.Values) >= in.NumVars {
		c.HasSolution, c.Values = true, in.ExtendedWitness(r.Values)
		c.Best = r.Best - in.Offset + p.CostOffset
	}
	return c
}

// verify is the portfolio's one claim verifier; every member's outcome
// passes it before the winner logic. The result carries the witness's
// recomputed cost, or no witness when pb.Problem.WitnessCost rejects it.
// OPTIMAL passes only from an exact member whose verified cost equals the
// claim; UNSAT only with the hard-UNSAT marker; SAT only with a verified,
// cost-matching witness on an objective-free instance. Any other claim is
// demoted to StatusLimit and keeps its verified incumbent, so no member bug
// can turn an upper bound into a fake proof.
func verify(p *pb.Problem, c claim) core.Result {
	res := c.Result
	var cost int64
	verified := false
	if res.HasSolution {
		cost, verified = p.WitnessCost(res.Values)
	}
	matches := verified && cost+p.CostOffset == res.Best
	if verified {
		res.Best = cost + p.CostOffset
	} else {
		res.HasSolution, res.Best, res.Values = false, 0, nil
	}
	pass := true // StatusLimit and StatusError pass as they are
	switch res.Status {
	case core.StatusOptimal:
		pass = c.exact && matches
	case core.StatusUnsat:
		pass = c.hardUnsat
	case core.StatusSatisfiable:
		pass = matches && !p.HasObjective()
	}
	if !pass {
		res.Status = core.StatusLimit
	}
	return res
}

// timeLimit is the member's own TimeLimit, whichever solver it configures.
func (c Config) timeLimit() time.Duration {
	switch {
	case c.CoreGuided != nil:
		return c.CoreGuided.Options.TimeLimit
	case c.LS != nil:
		return c.LS.TimeLimit
	}
	return c.Options.TimeLimit
}

func (c Config) name() string {
	if c.Name != "" {
		return c.Name
	}
	if c.LS != nil {
		return "ls"
	}
	if c.CoreGuided != nil {
		return "core-guided"
	}
	return c.Options.LowerBound.String()
}
