package serve

import (
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/share"
)

// JobStatus is the lifecycle state of one submitted solve. The terminal
// states form the daemon's answer contract: every admitted job ends in
// exactly one of them, exactly once, no matter how the solve behaved
// (finished, cancelled, timed out, crashed, or hung).
type JobStatus string

const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued JobStatus = "queued"
	// JobRunning: a worker is executing the solve.
	JobRunning JobStatus = "running"

	// JobOptimal / JobSatisfiable / JobUnsat: the solver's proved verdicts.
	JobOptimal     JobStatus = "optimal"
	JobSatisfiable JobStatus = "satisfiable"
	JobUnsat       JobStatus = "unsatisfiable"
	// JobTimeout: the job's deadline expired; the best incumbent found
	// before it (if any) is attached.
	JobTimeout JobStatus = "timeout"
	// JobCancelled: the client (or the drain path) cancelled the job; the
	// best incumbent found before the cancel is attached.
	JobCancelled JobStatus = "cancelled"
	// JobStalled: the watchdog demoted a stuck solve to its best incumbent
	// instead of letting the client hang (graceful degradation).
	JobStalled JobStatus = "stalled"
	// JobError: the solve crashed (panic isolated per job) or failed its
	// audit; Err carries the first line of the cause.
	JobError JobStatus = "error"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	switch s {
	case JobQueued, JobRunning:
		return false
	}
	return true
}

// IncumbentEvent is one upper-bound improvement observed during a job,
// relative to submission time. Streamed live on /jobs/{id}/events.
type IncumbentEvent struct {
	AtMs float64 `json:"at_ms"`
	Best int64   `json:"best"`
}

// Job is one admitted solve. All mutable state is guarded by mu; the
// finalize path is write-once, so a concurrent cancel racing a natural
// finish yields exactly one of the two outcomes and never a torn mix
// (status from one, result from the other) — pinned by the -race tests.
type Job struct {
	ID     string
	Tenant string
	Solver string

	// cancel is closed (once) to stop the solve: client cancel, watchdog
	// demotion, or drain. done is closed exactly when the job turns
	// terminal; result long-polls and the drain path wait on it.
	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}

	// live receives the solver's periodic metrics publishes; the watchdog
	// derives its progress heartbeat from it (and from incumbent events).
	live *obs.Live

	prob *pb.Problem

	mu sync.Mutex
	// board is the job's race board: every member publishes each
	// improvement (values included) to it, which is what lets the watchdog
	// and the drain demote a stuck job to a full answer.
	board      *share.Board
	status     JobStatus
	submitted  time.Time
	deadline   time.Time
	started    time.Time
	finished   time.Time
	cancelReq  bool // client or drain asked for cancellation
	rescuing   bool // watchdog fired the cancel; rescueAt is when
	rescueAt   time.Time
	rescued    bool // watchdog demotion actually finalized the job
	cacheHit   bool
	best       *int64
	values     []bool
	errMsg     string
	incumbents []IncumbentEvent
	// lastBeat/lastSig drive stall detection: lastSig is the most recent
	// progress fingerprint, lastBeat when it last changed.
	lastBeat time.Time
	lastSig  string
}

// requestCancel closes the cancel channel (idempotent) and records whether
// the request came from a client/drain (asCancel) or from the watchdog.
func (j *Job) requestCancel(asCancel bool) {
	j.mu.Lock()
	if !j.status.Terminal() {
		if asCancel {
			j.cancelReq = true
		} else if !j.rescuing {
			j.rescuing = true
			j.rescueAt = time.Now()
		}
	}
	j.mu.Unlock()
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// markRunning transitions queued → running; false when the job was already
// finalized (cancelled while queued, or force-resolved by the drain path).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobQueued {
		return false
	}
	j.status = JobRunning
	j.started = time.Now()
	j.lastBeat = j.started
	return true
}

// recordIncumbent appends an upper-bound improvement (the solver's
// OnIncumbent callback; portfolio members may deliver duplicates or
// regressions relative to each other, so only strict improvements count).
func (j *Job) recordIncumbent(best int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.incumbents) > 0 && best >= j.incumbents[len(j.incumbents)-1].Best {
		return
	}
	j.incumbents = append(j.incumbents, IncumbentEvent{
		AtMs: float64(time.Since(j.submitted).Microseconds()) / 1000,
		Best: best,
	})
	j.lastBeat = time.Now()
}

// setBoard publishes the job's board once the solve has built it.
func (j *Job) setBoard(b *share.Board) {
	j.mu.Lock()
	j.board = b
	j.mu.Unlock()
}

// bestKnown is the best answer retrievable without the solve's cooperation:
// the job board's best solution, values included (nil before the solve has
// built its board or found an incumbent).
func (j *Job) bestKnown() (*int64, []bool) {
	j.mu.Lock()
	board := j.board
	j.mu.Unlock()
	if board == nil {
		return nil, nil
	}
	cost, values, _, ok := board.BestSolution()
	if !ok {
		return nil, nil
	}
	ext := cost + j.prob.CostOffset
	return &ext, values
}

// finalize installs the terminal state exactly once and returns whether this
// call won. Status, result fields and the done broadcast all commit under
// one critical section: observers (view, result waiters) can never see a
// terminal status with partial result fields.
func (j *Job) finalize(st JobStatus, best *int64, values []bool, errMsg string) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = st
	j.best = best
	j.values = values
	j.errMsg = firstLine(errMsg)
	j.finished = time.Now()
	if st == JobStalled {
		j.rescued = true
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

// progressSig fingerprints the solve's observable progress: the live
// metrics counters (published by core every 16th node) plus the incumbent
// count. Any change re-arms the stall watchdog.
func (j *Job) progressSig() string {
	m, ok := j.live.Load()
	j.mu.Lock()
	n := len(j.incumbents)
	j.mu.Unlock()
	if !ok {
		return sig2("-", 0, int64(n))
	}
	return sig2(m.Name, m.Decisions+m.Conflicts+m.Propagations+m.BoundCalls+m.Solutions, int64(n))
}

func sig2(name string, work, inc int64) string {
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('/')
	writeInt(&b, work)
	b.WriteByte('/')
	writeInt(&b, inc)
	return b.String()
}

func writeInt(b *strings.Builder, v int64) {
	if v < 0 {
		b.WriteByte('-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}

// JobView is the JSON representation served by the status, result and list
// endpoints. Values is the solution as a compact bitstring ("0110…", one
// character per variable, index order).
type JobView struct {
	ID              string           `json:"id"`
	Tenant          string           `json:"tenant,omitempty"`
	Solver          string           `json:"solver"`
	Status          JobStatus        `json:"status"`
	SubmittedUnixMs int64            `json:"submitted_unix_ms"`
	DeadlineUnixMs  int64            `json:"deadline_unix_ms"`
	WallMs          float64          `json:"wall_ms,omitempty"`
	Best            *int64           `json:"best,omitempty"`
	Values          string           `json:"values,omitempty"`
	CacheHit        bool             `json:"cache_hit,omitempty"`
	Cancelled       bool             `json:"cancel_requested,omitempty"`
	Rescued         bool             `json:"watchdog_rescued,omitempty"`
	Err             string           `json:"err,omitempty"`
	Incumbents      []IncumbentEvent `json:"incumbents,omitempty"`
}

// view assembles a consistent snapshot under the job mutex.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:              j.ID,
		Tenant:          j.Tenant,
		Solver:          j.Solver,
		Status:          j.status,
		SubmittedUnixMs: j.submitted.UnixMilli(),
		DeadlineUnixMs:  j.deadline.UnixMilli(),
		Best:            j.best,
		Values:          bitstring(j.values),
		CacheHit:        j.cacheHit,
		Cancelled:       j.cancelReq,
		Rescued:         j.rescued,
		Err:             j.errMsg,
		Incumbents:      append([]IncumbentEvent(nil), j.incumbents...),
	}
	if j.status.Terminal() {
		v.WallMs = float64(j.finished.Sub(j.submitted).Microseconds()) / 1000
	}
	return v
}

func bitstring(values []bool) string {
	if values == nil {
		return ""
	}
	b := make([]byte, len(values))
	for i, v := range values {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// ParseBitstring decodes the JobView.Values encoding (tests and clients).
func ParseBitstring(s string) []bool {
	if s == "" {
		return nil
	}
	out := make([]bool, len(s))
	for i := range s {
		out[i] = s[i] == '1'
	}
	return out
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
