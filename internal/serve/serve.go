// Package serve is bsolvd's robustness envelope: it turns the solver
// libraries (core, portfolio, share, bounds, obs) into a long-running
// PBO-as-a-service daemon that survives overload, stragglers, poisoned
// instances and member crashes without ever corrupting an answer.
//
// The envelope, layer by layer (DESIGN.md §12):
//
//   - Admission control: a bounded job queue plus per-tenant concurrency
//     quotas. When either is full the daemon sheds load with 429 and a
//     Retry-After hint instead of queueing unboundedly — latency stays
//     bounded under overload, and one hot tenant cannot starve the rest.
//   - Deadline propagation: every job carries a wall-clock deadline fixed at
//     admission. Time spent waiting in the queue is charged against it, the
//     remainder is threaded into core.Options.TimeLimit (and from there into
//     every bounds.Budget), and a job whose deadline expired while queued is
//     answered "timeout" without wasting a solve.
//   - Per-job panic isolation: each solve runs behind its own recover
//     barrier (on top of the portfolio's member isolation: every job, single
//     solver or portfolio, is one race), so a poisoned instance crashes one
//     job, never the daemon.
//   - Watchdog demotion: a job whose solve stops making observable progress
//     (live-metrics fingerprint and incumbent stream both frozen) is
//     cancelled, given a grace period, and — if it still will not return —
//     demoted to its best incumbent ("stalled") while the runaway goroutine
//     is abandoned and its worker slot reclaimed. Clients never hang on a
//     stuck solve.
//   - Graceful drain: SIGTERM stops admission (503), lets in-flight and
//     queued jobs finish within the drain budget, cancels what remains,
//     force-resolves anything stuck, flushes metrics, and exits with zero
//     lost jobs — every admitted job reaches a terminal status.
//   - Solve-session cache: re-submissions of the same problem (keyed by a
//     content hash) are seeded with the previous solve's incumbent and LP
//     warm-start state. Every reuse path re-verifies before trusting: a
//     corrupted cached incumbent fails feasibility re-checking and the solve
//     falls back to cold — cache trouble can cost speed, never correctness.
//
// Fault-injection points ("serve.admit", "serve.queue", "serve.job",
// "serve.cache") cover the admission, dequeue, solve and cache-reuse paths;
// the chaos suite arms them all at once and asserts the acceptance
// invariants above.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/portfolio"
	"repro/internal/share"
)

// Config sizes the robustness envelope. The zero value selects defaults
// suitable for tests and small deployments.
type Config struct {
	// QueueCap bounds the number of admitted-but-not-yet-running jobs
	// (default 64). A full queue sheds new submissions with 429.
	QueueCap int
	// Workers is the solver worker-pool size (default GOMAXPROCS).
	Workers int
	// TenantMax caps one tenant's queued+running jobs (default 16;
	// negative = unlimited). Beyond it the tenant is shed with 429.
	TenantMax int
	// DefaultDeadline is the per-job wall-clock budget when the submission
	// names none (default 10s). MaxDeadline clamps client-requested budgets
	// (default 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// StallTimeout is how long a running job may show no observable progress
	// before the watchdog intervenes (default 2s). StallGrace is how long a
	// cancelled-by-watchdog solve gets to unwind before the job is demoted
	// to its incumbent and the goroutine abandoned (default StallTimeout/2).
	StallTimeout time.Duration
	StallGrace   time.Duration
	// CacheCap bounds the solve-session cache in entries (default 256;
	// negative disables caching).
	CacheCap int
	// JobsCap bounds retained terminal jobs for status queries (default
	// 4096; oldest terminal jobs are evicted beyond it).
	JobsCap int
	// MaxBodyBytes bounds the submitted OPB size (default 8 MiB).
	MaxBodyBytes int64
	// Audit attaches an invariant auditor to every job and converts audit
	// violations into "error" statuses. Expensive; meant for the chaos suite
	// and debugging, not production serving.
	Audit bool
	// Registry, when non-nil, receives service metadata and serves the
	// unified metrics document on the daemon's /metrics endpoint.
	Registry *obs.Registry
	// Trace, when non-nil, records structured search events from every job
	// (Named per job ID) into the shared ring.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.TenantMax == 0 {
		c.TenantMax = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * time.Second
	}
	if c.StallGrace <= 0 {
		c.StallGrace = c.StallTimeout / 2
	}
	if c.CacheCap == 0 {
		c.CacheCap = 256
	}
	if c.JobsCap <= 0 {
		c.JobsCap = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// counters is the serve-level metrics block (all atomics: scraped live).
type counters struct {
	submitted     atomic.Int64
	admitted      atomic.Int64
	badRequests   atomic.Int64
	shedQueue     atomic.Int64
	shedTenant    atomic.Int64
	drainRejected atomic.Int64

	completed   atomic.Int64
	optimal     atomic.Int64
	satisfiable atomic.Int64
	unsat       atomic.Int64
	timeouts    atomic.Int64
	cancelled   atomic.Int64
	stalled     atomic.Int64
	errors      atomic.Int64

	panicsIsolated  atomic.Int64
	memberCrashes   atomic.Int64
	watchdogKicks   atomic.Int64
	watchdogRescues atomic.Int64
	abandoned       atomic.Int64
	drainForced     atomic.Int64

	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	cacheFallback atomic.Int64
	cacheStores   atomic.Int64
}

// Server is one bsolvd instance.
type Server struct {
	cfg   Config
	start time.Time

	mu           sync.Mutex
	draining     bool
	queue        chan *Job
	jobs         map[string]*Job
	order        []string // insertion order, for terminal-job eviction
	tenantActive map[string]int
	seq          int64

	wg        sync.WaitGroup // workers
	watchStop chan struct{}
	watchDone chan struct{}
	cache     *sessionCache

	drainOnce   sync.Once
	drainDone   chan struct{}
	drainReport DrainReport

	ctr counters

	latMu    sync.Mutex
	latCount int64
	latSumMs float64
	latMaxMs float64
}

// Config reports the server's effective configuration — the caller's
// Config with every zero field replaced by its default.
func (s *Server) Config() Config { return s.cfg }

// New starts a server: the worker pool and the stall watchdog begin
// immediately. Stop it with Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		start:        time.Now(),
		queue:        make(chan *Job, cfg.QueueCap),
		jobs:         make(map[string]*Job),
		tenantActive: make(map[string]int),
		watchStop:    make(chan struct{}),
		watchDone:    make(chan struct{}),
		drainDone:    make(chan struct{}),
		cache:        newSessionCache(cfg.CacheCap),
	}
	if cfg.Registry != nil {
		cfg.Registry.SetMeta("service", "bsolvd")
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	go s.watchdog()
	return s
}

// SubmitOptions parameterizes one submission.
type SubmitOptions struct {
	// Tenant is the quota bucket ("" = "anon").
	Tenant string
	// Solver selects the engine: plain|mis|lgr|lpr|portfolio ("" = lpr).
	Solver string
	// Timeout is the requested wall-clock budget (clamped to MaxDeadline;
	// 0 = DefaultDeadline). The clock starts at admission: queue wait is
	// charged against it.
	Timeout time.Duration
}

// AdmitError is a rejected submission: an HTTP status code, a reason, and —
// for load sheds — a Retry-After hint in seconds.
type AdmitError struct {
	Code       int
	Reason     string
	RetryAfter int
}

func (e *AdmitError) Error() string { return fmt.Sprintf("%d %s", e.Code, e.Reason) }

// Submit admits (or sheds) one parsed problem. Admission is panic-isolated:
// a crash in the admission path (e.g. the "serve.admit" fault point) is
// converted into a 500 rejection instead of taking down the daemon.
func (s *Server) Submit(prob *pb.Problem, opts SubmitOptions) (j *Job, aerr *AdmitError) {
	s.ctr.submitted.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panicsIsolated.Add(1)
			j, aerr = nil, &AdmitError{Code: 500, Reason: fmt.Sprintf("admission panic isolated: %v", r)}
		}
	}()
	fault.Fire("serve.admit", opts.Tenant)
	if _, _, err := solverMode(opts.Solver); err != nil {
		s.ctr.badRequests.Add(1)
		return nil, &AdmitError{Code: 400, Reason: err.Error()}
	}
	if err := prob.Validate(); err != nil {
		s.ctr.badRequests.Add(1)
		return nil, &AdmitError{Code: 400, Reason: "invalid problem: " + firstLine(err.Error())}
	}
	tenant := opts.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultDeadline
	}
	if timeout > s.cfg.MaxDeadline {
		timeout = s.cfg.MaxDeadline
	}
	now := time.Now()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.ctr.drainRejected.Add(1)
		return nil, &AdmitError{Code: 503, Reason: "draining: not admitting new jobs"}
	}
	if s.cfg.TenantMax > 0 && s.tenantActive[tenant] >= s.cfg.TenantMax {
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		s.ctr.shedTenant.Add(1)
		return nil, &AdmitError{Code: 429, Reason: "tenant concurrency quota exhausted", RetryAfter: retry}
	}
	s.seq++
	job := &Job{
		ID:     fmt.Sprintf("j%06d", s.seq),
		Tenant: tenant,
		Solver: canonSolver(opts.Solver),
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
		live:   &obs.Live{},
		prob:   prob,
	}
	job.status = JobQueued
	job.submitted = now
	job.deadline = now.Add(timeout)
	job.lastBeat = now
	select {
	case s.queue <- job:
	default:
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		s.ctr.shedQueue.Add(1)
		return nil, &AdmitError{Code: 429, Reason: "job queue full", RetryAfter: retry}
	}
	s.tenantActive[tenant]++
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictLocked()
	s.mu.Unlock()
	s.ctr.admitted.Add(1)
	return job, nil
}

// retryAfterLocked estimates when shedding is likely to stop: one queue
// drain's worth of seconds, clamped to [1, 30].
func (s *Server) retryAfterLocked() int {
	secs := 1 + len(s.queue)/s.cfg.Workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// evictLocked drops the oldest terminal jobs beyond JobsCap.
func (s *Server) evictLocked() {
	for len(s.jobs) > s.cfg.JobsCap && len(s.order) > 0 {
		evicted := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			j.mu.Lock()
			terminal := j.status.Terminal()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still live; never evict live jobs
		}
	}
}

// Job returns a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Queued jobs are finalized
// immediately; running jobs unwind at the solver's next cancellation poll
// (or are demoted by the watchdog if they refuse to).
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.requestCancel(true)
	// A queued job has no worker to resolve it: finalize here so the client
	// sees "cancelled" without waiting for a dequeue.
	j.mu.Lock()
	queued := j.status == JobQueued
	j.mu.Unlock()
	if queued {
		s.finalizeJob(j, JobCancelled, nil, nil, "")
	}
	return true
}

// --- workers ---

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// solveOutcome is what the (possibly abandoned) solve goroutine delivers.
type solveOutcome struct {
	res      core.Result
	auditErr string
}

func (s *Server) runJob(j *Job) {
	if !j.markRunning() {
		return // finalized while queued (client cancel or drain force)
	}
	fault.Fire("serve.queue", j.Tenant)
	now := time.Now()
	if !now.Before(j.deadline) {
		// The deadline died in the queue: answer without burning a solve.
		s.finalizeJob(j, JobTimeout, nil, nil, "deadline expired while queued")
		return
	}
	select {
	case <-j.cancel:
		s.finalizeJob(j, JobCancelled, nil, nil, "")
		return
	default:
	}

	var sess *session
	if s.cache != nil {
		key := ProblemKey(j.prob)
		var hit bool
		sess, hit = s.cache.acquire(key)
		if hit {
			s.ctr.cacheHits.Add(1)
			j.mu.Lock()
			j.cacheHit = true
			j.mu.Unlock()
		} else {
			s.ctr.cacheMisses.Add(1)
		}
	}

	solveDone := make(chan solveOutcome, 1)
	go func() { solveDone <- s.solveGuarded(j, sess) }()
	select {
	case out := <-solveDone:
		s.completeJob(j, sess, out)
	case <-j.done:
		// The watchdog (or the drain deadline) already resolved the job
		// while the solve refuses to return: reclaim the worker slot,
		// abandon the goroutine, and poison the cache lease — the runaway
		// may still be mutating the warm state, so none of it is reusable.
		s.ctr.abandoned.Add(1)
		sess.discard()
	}
}

// solveGuarded runs one job's solve behind the per-job panic barrier.
func (s *Server) solveGuarded(j *Job, sess *session) (out solveOutcome) {
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panicsIsolated.Add(1)
			out = solveOutcome{res: core.Result{
				Status: core.StatusError,
				Err:    fmt.Errorf("serve: job %s panicked: %v", j.ID, r),
			}}
		}
	}()
	fault.Fire("serve.job", j.Tenant, j.Solver)

	// Deadline propagation: whatever the queue wait left over becomes the
	// solver's TimeLimit, which core further subdivides into per-call
	// bounds.Budget deadlines.
	rem := time.Until(j.deadline)
	if rem <= 0 {
		return solveOutcome{res: core.Result{Status: core.StatusLimit}}
	}

	// Session-cache seeding, verified before trusted. The "serve.cache"
	// fault point simulates a corrupted cache entry; corruption is caught by
	// the feasibility re-check and degrades to a cold solve.
	var warm []bool
	if sess != nil && sess.warm != nil {
		warm = sess.warm
		if v := fault.Corrupt("serve.cache", 0, j.Tenant); v != 0 {
			warm = corruptValues(warm)
		}
		if _, ok := j.prob.WitnessCost(warm); !ok {
			sess.invalidate()
			s.ctr.cacheFallback.Add(1)
			warm = nil
		}
	}

	var aud *audit.Auditor
	if s.cfg.Audit {
		aud = audit.New(j.prob)
	}

	// Every solver name is one race: "portfolio" the four bsolo members, any
	// other name that one bsolo column alone. The job's board, seeded with
	// the verified cache incumbent, makes every incumbent (values included)
	// observable mid-run: the watchdog's demotion answer reads it.
	method, isPortfolio, _ := solverMode(j.Solver)
	configs := portfolio.DefaultConfigs()
	if !isPortfolio {
		cfg := portfolio.Config{Name: j.Solver, Options: baseline.Bsolo(method)}
		if method == core.LBLPR && sess != nil {
			if sess.lpr == nil {
				sess.lpr = &bounds.LPRState{}
			}
			cfg.Options.LPRState = sess.lpr
		}
		configs = []portfolio.Config{cfg}
	}
	for i := range configs {
		o := &configs[i].Options
		o.TimeLimit, o.OnIncumbent, o.Live = rem, j.recordIncumbent, j.live
	}
	board := share.NewBoard()
	portfolio.SeedIncumbent(board, j.prob, warm)
	j.setBoard(board)
	pres := portfolio.SolveOpts(j.prob, configs, portfolio.Options{
		Board: board,
		Stop:  j.cancel,
		Audit: aud,
		Trace: s.cfg.Trace.Named(j.ID),
	})
	s.ctr.memberCrashes.Add(int64(len(pres.Errors)))
	out.res = pres.Result
	if pres.Crashed() {
		// No member produced an outcome: the job failed, it did not time out.
		errs := make([]error, 0, len(pres.Members))
		for _, m := range pres.Members {
			errs = append(errs, m.Err)
		}
		out.res.Status, out.res.Err = core.StatusError, errors.Join(errs...)
	}
	if aud != nil && !aud.Ok() {
		rep := aud.Snapshot()
		out.auditErr = fmt.Sprintf("audit: %d invariant violations (first: %s)",
			len(rep.Violations), firstViolation(rep))
	}
	return out
}

// completeJob maps a finished solve onto the job's terminal status and
// stores the session state for the next re-submission.
func (s *Server) completeJob(j *Job, sess *session, out solveOutcome) {
	res := out.res
	if sess != nil {
		var vals []bool
		cost, ok := j.prob.WitnessCost(res.Values)
		if res.HasSolution && ok {
			vals = res.Values
			s.ctr.cacheStores.Add(1)
		}
		sess.release(vals, cost, sess.lpr)
	}

	var best *int64
	var values []bool
	if res.HasSolution {
		b := res.Best
		best = &b
		values = res.Values
	}
	var st JobStatus
	errMsg := ""
	switch res.Status {
	case core.StatusOptimal:
		st = JobOptimal
	case core.StatusSatisfiable:
		st = JobSatisfiable
	case core.StatusUnsat:
		st = JobUnsat
	case core.StatusError:
		st = JobError
		if res.Err != nil {
			errMsg = res.Err.Error()
		}
	default: // StatusLimit: attribute the interruption
		j.mu.Lock()
		rescuing := j.rescuing
		cancelReq := j.cancelReq
		j.mu.Unlock()
		switch {
		case rescuing:
			// The watchdog fired but the solve unwound within the grace
			// period: demotion semantics, delivered by the solve itself.
			st = JobStalled
		case cancelReq:
			st = JobCancelled
		default:
			st = JobTimeout
		}
	}
	if out.auditErr != "" {
		// An audit violation outranks any verdict: never serve an answer the
		// auditor rejected as if it were clean.
		st = JobError
		errMsg = out.auditErr
		best = nil
		values = nil
	}
	s.finalizeJob(j, st, best, values, errMsg)
}

// finalizeJob is the single terminal-transition point: job state, tenant
// quota release, status counters and latency accounting all happen here (and
// only for the finalize call that won the race).
func (s *Server) finalizeJob(j *Job, st JobStatus, best *int64, values []bool, errMsg string) bool {
	if !j.finalize(st, best, values, errMsg) {
		return false
	}
	s.mu.Lock()
	if s.tenantActive[j.Tenant] > 1 {
		s.tenantActive[j.Tenant]--
	} else {
		delete(s.tenantActive, j.Tenant)
	}
	s.mu.Unlock()
	s.ctr.completed.Add(1)
	switch st {
	case JobOptimal:
		s.ctr.optimal.Add(1)
	case JobSatisfiable:
		s.ctr.satisfiable.Add(1)
	case JobUnsat:
		s.ctr.unsat.Add(1)
	case JobTimeout:
		s.ctr.timeouts.Add(1)
	case JobCancelled:
		s.ctr.cancelled.Add(1)
	case JobStalled:
		s.ctr.stalled.Add(1)
		s.ctr.watchdogRescues.Add(1)
	case JobError:
		s.ctr.errors.Add(1)
	}
	v := j.view()
	s.latMu.Lock()
	s.latCount++
	s.latSumMs += v.WallMs
	if v.WallMs > s.latMaxMs {
		s.latMaxMs = v.WallMs
	}
	s.latMu.Unlock()
	return true
}

// --- watchdog ---

func (s *Server) watchdog() {
	defer close(s.watchDone)
	interval := s.cfg.StallTimeout / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
			s.scanStalls(time.Now())
		}
	}
}

// scanStalls advances the two-phase stall state machine for every running
// job: a frozen progress fingerprint first triggers a cancel (the solve may
// unwind normally and deliver its own incumbent), and a solve that outlives
// the grace period after that is demoted — finalized as "stalled" with the
// best incumbent observed, its goroutine abandoned by runJob.
func (s *Server) scanStalls(now time.Time) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.status != JobRunning {
			j.mu.Unlock()
			continue
		}
		rescuing := j.rescuing
		rescueAt := j.rescueAt
		j.mu.Unlock()

		if rescuing {
			if now.Sub(rescueAt) >= s.cfg.StallGrace {
				best, values := j.bestKnown()
				s.finalizeJob(j, JobStalled, best, values, "watchdog: solve stalled; demoted to best incumbent")
			}
			continue
		}
		sig := j.progressSig()
		j.mu.Lock()
		if sig != j.lastSig {
			j.lastSig = sig
			j.lastBeat = now
			j.mu.Unlock()
			continue
		}
		stalled := now.Sub(j.lastBeat) >= s.cfg.StallTimeout
		j.mu.Unlock()
		if stalled {
			s.ctr.watchdogKicks.Add(1)
			j.requestCancel(false)
		}
	}
}

// --- drain ---

// DrainReport is the outcome of a graceful shutdown.
type DrainReport struct {
	// Resolved counts jobs that were in flight (queued or running) when the
	// drain began and reached a terminal status during it.
	Resolved int
	// Forced is the subset that had to be force-finalized at the drain
	// deadline (stuck solves demoted to their incumbents).
	Forced int
	// Clean reports a fully graceful drain: every job resolved, workers and
	// watchdog joined.
	Clean bool
	// MetricsFlushed reports that the final unified snapshot was assembled
	// (Registry configured).
	MetricsFlushed bool
	// FinalSnapshot is that snapshot (zero when no Registry).
	FinalSnapshot obs.Snapshot
}

// Drain performs the SIGTERM shutdown sequence: stop admitting (503), let
// in-flight and queued jobs finish until ctx expires, then cancel the
// remainder, grace-wait, force-resolve anything still stuck, join the worker
// pool and the watchdog, and flush metrics. Idempotent: concurrent callers
// all receive the same report once the first drain completes.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.drainOnce.Do(func() { s.drainReport = s.drain(ctx.Done()) })
	<-s.drainDone
	return s.drainReport
}

func (s *Server) drain(deadline <-chan struct{}) DrainReport {
	defer close(s.drainDone)
	s.mu.Lock()
	s.draining = true
	close(s.queue) // submits check draining under mu first: no send-after-close
	s.mu.Unlock()

	pending := func() []*Job {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []*Job
		for _, j := range s.jobs {
			j.mu.Lock()
			if !j.status.Terminal() {
				out = append(out, j)
			}
			j.mu.Unlock()
		}
		return out
	}
	inFlight := len(pending())

	// Phase 1: let the queue and the running jobs finish naturally.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
phase1:
	for len(pending()) > 0 {
		select {
		case <-deadline:
			break phase1
		case <-tick.C:
		}
	}

	// Phase 2: the drain budget is spent — cancel everything that remains
	// and give it one stall-grace to unwind through the solver's own
	// cancellation path.
	rest := pending()
	for _, j := range rest {
		j.requestCancel(true)
	}
	if len(rest) > 0 {
		grace := time.NewTimer(s.cfg.StallGrace)
	phase2:
		for len(pending()) > 0 {
			select {
			case <-grace.C:
				break phase2
			case <-tick.C:
			}
		}
		grace.Stop()
	}

	// Phase 3: force-resolve stuck stragglers so no admitted job is ever
	// lost; their worker slots unblock on j.done and the pool joins.
	forced := 0
	for _, j := range pending() {
		best, values := j.bestKnown()
		if s.finalizeJob(j, JobCancelled, best, values, "forced at drain deadline") {
			forced++
			s.ctr.drainForced.Add(1)
		}
	}
	s.wg.Wait()
	close(s.watchStop)
	<-s.watchDone

	rep := DrainReport{
		Resolved: inFlight,
		Forced:   forced,
		Clean:    len(pending()) == 0,
	}
	if s.cfg.Registry != nil {
		s.cfg.Registry.SetMeta("drained", "true")
		rep.FinalSnapshot = s.cfg.Registry.Snapshot()
		rep.MetricsFlushed = true
	}
	return rep
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// --- stats ---

// Stats is a point-in-time snapshot of the serve-level counters.
type Stats struct {
	UptimeMs float64 `json:"uptime_ms"`
	Draining bool    `json:"draining"`
	Queued   int     `json:"queued"`
	Running  int     `json:"running"`

	Submitted     int64 `json:"submitted"`
	Admitted      int64 `json:"admitted"`
	BadRequests   int64 `json:"bad_requests"`
	ShedQueue     int64 `json:"shed_queue"`
	ShedTenant    int64 `json:"shed_tenant"`
	DrainRejected int64 `json:"drain_rejected"`

	Completed   int64 `json:"completed"`
	Optimal     int64 `json:"optimal"`
	Satisfiable int64 `json:"satisfiable"`
	Unsat       int64 `json:"unsatisfiable"`
	Timeouts    int64 `json:"timeouts"`
	Cancelled   int64 `json:"cancelled"`
	Stalled     int64 `json:"stalled"`
	Errors      int64 `json:"errors"`

	PanicsIsolated  int64 `json:"panics_isolated"`
	MemberCrashes   int64 `json:"member_crashes"`
	WatchdogKicks   int64 `json:"watchdog_kicks"`
	WatchdogRescues int64 `json:"watchdog_rescues"`
	Abandoned       int64 `json:"abandoned"`
	DrainForced     int64 `json:"drain_forced"`

	CacheSessions  int   `json:"cache_sessions"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheFallbacks int64 `json:"cache_fallbacks"`
	CacheStores    int64 `json:"cache_stores"`

	LatCount  int64   `json:"lat_count"`
	LatMeanMs float64 `json:"lat_mean_ms"`
	LatMaxMs  float64 `json:"lat_max_ms"`
}

// Stats assembles the current counter snapshot.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.status == JobRunning {
			running++
		}
		j.mu.Unlock()
	}
	st := Stats{
		UptimeMs: float64(time.Since(s.start).Microseconds()) / 1000,
		Draining: s.draining,
		Queued:   len(s.queue),
		Running:  running,
	}
	s.mu.Unlock()

	st.Submitted = s.ctr.submitted.Load()
	st.Admitted = s.ctr.admitted.Load()
	st.BadRequests = s.ctr.badRequests.Load()
	st.ShedQueue = s.ctr.shedQueue.Load()
	st.ShedTenant = s.ctr.shedTenant.Load()
	st.DrainRejected = s.ctr.drainRejected.Load()
	st.Completed = s.ctr.completed.Load()
	st.Optimal = s.ctr.optimal.Load()
	st.Satisfiable = s.ctr.satisfiable.Load()
	st.Unsat = s.ctr.unsat.Load()
	st.Timeouts = s.ctr.timeouts.Load()
	st.Cancelled = s.ctr.cancelled.Load()
	st.Stalled = s.ctr.stalled.Load()
	st.Errors = s.ctr.errors.Load()
	st.PanicsIsolated = s.ctr.panicsIsolated.Load()
	st.MemberCrashes = s.ctr.memberCrashes.Load()
	st.WatchdogKicks = s.ctr.watchdogKicks.Load()
	st.WatchdogRescues = s.ctr.watchdogRescues.Load()
	st.Abandoned = s.ctr.abandoned.Load()
	st.DrainForced = s.ctr.drainForced.Load()
	st.CacheSessions = s.cache.len()
	st.CacheHits = s.ctr.cacheHits.Load()
	st.CacheMisses = s.ctr.cacheMisses.Load()
	st.CacheFallbacks = s.ctr.cacheFallback.Load()
	st.CacheStores = s.ctr.cacheStores.Load()

	s.latMu.Lock()
	st.LatCount = s.latCount
	if s.latCount > 0 {
		st.LatMeanMs = s.latSumMs / float64(s.latCount)
	}
	st.LatMaxMs = s.latMaxMs
	s.latMu.Unlock()
	return st
}

// --- helpers ---

func defaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

func solverMode(name string) (core.Method, bool, error) {
	switch name {
	case "", "lpr":
		return core.LBLPR, false, nil
	case "plain":
		return core.LBNone, false, nil
	case "mis":
		return core.LBMIS, false, nil
	case "lgr":
		return core.LBLGR, false, nil
	case "portfolio":
		return 0, true, nil
	}
	return 0, false, fmt.Errorf("unknown solver %q (want plain|mis|lgr|lpr|portfolio)", name)
}

func canonSolver(name string) string {
	if name == "" {
		return "lpr"
	}
	return name
}

// corruptValues simulates a torn cache entry (the "serve.cache" chaos path):
// every bit flipped, which breaks feasibility on any constrained instance.
func corruptValues(values []bool) []bool {
	out := make([]bool, len(values))
	for i, v := range values {
		out[i] = !v
	}
	return out
}

func firstViolation(rep audit.Report) string {
	if len(rep.Violations) == 0 {
		return "?"
	}
	return firstLine(rep.Violations[0].String())
}
