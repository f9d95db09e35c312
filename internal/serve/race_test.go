package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestEveryMemberCrashedIsJobError arms a panic in every solver: a job whose
// race lost every member failed, whichever solver it names — it must not be
// reported as a timeout.
func TestEveryMemberCrashedIsJobError(t *testing.T) {
	defer fault.Reset()
	fault.Arm("core.solve", fault.Spec{Kind: fault.KindPanic, Every: 1})
	s := newTestServer(t, Config{})
	for _, solver := range []string{"lpr", "portfolio"} {
		j, aerr := s.Submit(tinyProblem(t), SubmitOptions{Solver: solver, Timeout: 5 * time.Second})
		if aerr != nil {
			t.Fatalf("%s: submit: %v", solver, aerr)
		}
		v := awaitTerminal(t, j, 10*time.Second)
		if v.Status != JobError || !strings.Contains(v.Err, "panicked") {
			t.Fatalf("%s: status %v (err %q), want error reporting the crash", solver, v.Status, v.Err)
		}
		if v.Best != nil {
			t.Fatalf("%s: a job with no surviving member reports best %d", solver, *v.Best)
		}
	}
}

// TestTracedJobEventsCarryJobAndMember pins the trace labels: every event of
// a traced job is stamped "<jobID>/<member>", so concurrent jobs' events stay
// distinguishable, single-solver and portfolio jobs alike.
func TestTracedJobEventsCarryJobAndMember(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	s := newTestServer(t, Config{Trace: tr})
	for _, solver := range []string{"lpr", "portfolio"} {
		j, aerr := s.Submit(tinyProblem(t), SubmitOptions{Solver: solver, Timeout: 5 * time.Second})
		if aerr != nil {
			t.Fatalf("%s: submit: %v", solver, aerr)
		}
		if v := awaitTerminal(t, j, 10*time.Second); v.Status != JobOptimal {
			t.Fatalf("%s: status %v, want optimal", solver, v.Status)
		}
		seen := map[string]bool{}
		for _, ev := range tr.Snapshot() {
			seen[ev.Member] = true
		}
		if !seen[j.ID+"/lpr"] {
			t.Fatalf("%s: no event stamped %q; members seen: %v", solver, j.ID+"/lpr", seen)
		}
	}
	for _, ev := range tr.Snapshot() {
		if i := strings.IndexByte(ev.Member, '/'); i <= 0 || i == len(ev.Member)-1 {
			t.Fatalf("event %+v is not stamped <jobID>/<member>", ev)
		}
	}
}
