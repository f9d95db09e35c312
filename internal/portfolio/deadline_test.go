package portfolio

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestQueuedMemberSkippedOnceTimeSpent pins the race deadline: with one
// worker, the first member spends its whole 100 ms on a planted instance no
// member proves that fast, so the second member — whose TimeLimit also
// counts from the race start — never starts. It reports StatusLimit with
// zero stats, is no crash, and the race ends within one limit plus slack
// instead of one limit per queued member.
func TestQueuedMemberSkippedOnceTimeSpent(t *testing.T) {
	p, err := gen.Planted(gen.PlantedConfig{Vars: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 100 * time.Millisecond
	configs := []Config{
		{Name: "first", Options: core.Options{LowerBound: core.LBNone, TimeLimit: limit}},
		{Name: "second", Options: core.Options{LowerBound: core.LBNone, TimeLimit: limit}},
	}
	start := time.Now()
	res := SolveOpts(p, configs, Options{MaxConcurrent: 1})
	wall := time.Since(start)

	if first := res.Members[0]; first.Status != core.StatusLimit || first.Stats.Decisions == 0 {
		t.Fatalf("first member: status=%v decisions=%d, want a limit after real search",
			first.Status, first.Stats.Decisions)
	}
	second := res.Members[1]
	if second.Status != core.StatusLimit || second.Stats.Decisions != 0 {
		t.Fatalf("second member: status=%v decisions=%d, want an unstarted limit",
			second.Status, second.Stats.Decisions)
	}
	if _, ok := res.Errors["second"]; ok {
		t.Fatal("a skipped member must not be reported as a crash")
	}
	if wall > limit+50*time.Millisecond {
		t.Fatalf("race took %v, want at most %v", wall, limit+50*time.Millisecond)
	}
}
