package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pb"
)

// TestChaosAcceptance is the PR's acceptance test (run under -race in CI):
// a saturated queue with panics, cache corruption and a hard straggler
// injected all at once must
//
//   - shed with 429, never hang a client;
//   - answer every admitted job with an audited-correct optimum or an
//     explicit cancelled/shed/timeout/stalled/error status — never a torn
//     result, never an audit violation;
//   - rescue at least one stuck job via the watchdog;
//   - drain cleanly on shutdown, resolving all in-flight jobs and flushing
//     the final metrics snapshot.
func TestChaosAcceptance(t *testing.T) {
	defer fault.Reset()

	// Reference optima, computed clean before any fault is armed.
	pool := loadPool(6, 42)
	optima := make([]int64, len(pool))
	for i, p := range pool {
		res := core.SafeSolve(p, core.Options{LowerBound: core.LBLPR, CardinalityInference: true, TimeLimit: 20 * time.Second})
		if res.Status != core.StatusOptimal {
			t.Fatalf("reference solve %d: %v", i, res.Status)
		}
		optima[i] = res.Best
	}

	// The storm: occasional admission crashes, frequent solve crashes,
	// corrupted cache reuses, and every MIS solve stalling hard inside an
	// uncancellable sleep.
	fault.Arm("serve.admit", fault.Spec{Kind: fault.KindPanic, Every: 23})
	fault.Arm("serve.job", fault.Spec{Kind: fault.KindPanic, Prob: 0.12, Seed: 7})
	fault.Arm("serve.cache", fault.Spec{Kind: fault.KindCorrupt, Prob: 0.5, Seed: 11, Value: 1})
	fault.Arm("mis.estimate", fault.Spec{Kind: fault.KindDelay, Every: 1, Delay: 3 * time.Second})

	reg := obs.NewRegistry()
	s := New(Config{
		Workers:      4,
		QueueCap:     4, // tiny on purpose: saturation must shed
		TenantMax:    8,
		StallTimeout: 150 * time.Millisecond,
		StallGrace:   100 * time.Millisecond,
		Audit:        true,
		Registry:     reg,
	})

	type outcome struct {
		job  *Job
		pool int
	}
	var (
		mu       sync.Mutex
		admitted []outcome
		shed     int
		rejected int
	)
	const (
		clients = 12
		perC    = 10
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perC; k++ {
				i := (c*perC + k) % len(pool)
				solver := []string{"lpr", "plain", "lgr"}[k%3]
				straggler := c == 0 && k < 3
				if straggler {
					solver = "mis" // the dedicated stragglers
				}
				j, aerr := s.Submit(pool[i], SubmitOptions{
					Tenant:  fmt.Sprintf("t%d", c%5),
					Solver:  solver,
					Timeout: 2 * time.Second,
				})
				// A straggler shed by the saturated queue honours Retry-After
				// and resubmits until admitted, like a well-behaved client:
				// if the storm shed all three, no job would ever stall and the
				// watchdog assertion below would fail for want of a subject.
				for straggler && aerr != nil && aerr.Code == 429 {
					mu.Lock()
					shed++
					mu.Unlock()
					time.Sleep(time.Duration(aerr.RetryAfter) * time.Second)
					j, aerr = s.Submit(pool[i], SubmitOptions{
						Tenant:  fmt.Sprintf("t%d", c%5),
						Solver:  solver,
						Timeout: 2 * time.Second,
					})
				}
				if aerr != nil {
					mu.Lock()
					if aerr.Code == 429 {
						shed++
					} else {
						rejected++
					}
					mu.Unlock()
					continue
				}
				mu.Lock()
				admitted = append(admitted, outcome{j, i})
				mu.Unlock()
				if c%2 == 0 {
					// Half the clients long-poll their job: keeps the queue
					// both saturated (shedding) and draining (solving).
					waitDone(j, 10*time.Second, nil)
				}
			}
		}(c)
	}
	// All submissions return promptly even against a saturated queue: the
	// driver goroutines themselves are the hang detector.
	submitDone := make(chan struct{})
	go func() { wg.Wait(); close(submitDone) }()
	select {
	case <-submitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("submission storm hung — admission blocked instead of shedding")
	}

	// Every admitted job reaches a terminal status within a bounded wait.
	for _, o := range admitted {
		select {
		case <-o.job.done:
		case <-time.After(15 * time.Second):
			t.Fatalf("job %s never resolved (status %v)", o.job.ID, o.job.view().Status)
		}
	}

	// Verdicts: only exact audited optima or explicit degradations.
	statuses := map[JobStatus]int{}
	for _, o := range admitted {
		v := o.job.view()
		statuses[v.Status]++
		p, want := pool[o.pool], optima[o.pool]
		switch v.Status {
		case JobOptimal:
			if v.Best == nil || *v.Best != want {
				t.Fatalf("%s: claimed optimum %v, reference %d", v.ID, v.Best, want)
			}
			checkWhole(t, p, v)
		case JobSatisfiable, JobTimeout, JobCancelled, JobStalled:
			// Degraded answers may carry an incumbent; it must be whole and
			// can never beat the true optimum.
			if v.Best != nil {
				if *v.Best < want {
					t.Fatalf("%s: incumbent %d beats the true optimum %d", v.ID, *v.Best, want)
				}
				if v.Values != "" {
					checkWhole(t, p, v)
				}
			}
		case JobError:
			// Only injected crashes are tolerable errors; an audit violation
			// means the envelope served (or almost served) a wrong answer.
			if strings.Contains(v.Err, "audit:") {
				t.Fatalf("%s: audit violation surfaced: %s", v.ID, v.Err)
			}
		default:
			t.Fatalf("%s: non-terminal status %v after done", v.ID, v.Status)
		}
	}

	st := s.Stats()
	if shed == 0 || st.ShedQueue == 0 {
		t.Fatalf("saturated queue never shed (client sheds %d, stats %d)", shed, st.ShedQueue)
	}
	if statuses[JobStalled] == 0 || st.WatchdogRescues == 0 {
		t.Fatalf("no watchdog rescue observed (statuses %v, stats rescues %d)", statuses, st.WatchdogRescues)
	}
	if st.PanicsIsolated == 0 {
		t.Fatal("no panic was isolated — the injection did not exercise the barrier")
	}

	// Shutdown under the same storm: everything resolves, metrics flush.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Drain(ctx)
	if !rep.Clean {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if !rep.MetricsFlushed || rep.FinalSnapshot.Schema == "" {
		t.Fatalf("final metrics snapshot not flushed: %+v", rep)
	}
	t.Logf("chaos: %d admitted %v, %d shed, %d rejected; rescues=%d panics=%d cacheFalls=%d",
		len(admitted), statuses, shed, rejected, st.WatchdogRescues, st.PanicsIsolated, st.CacheFallbacks)
}

func checkWhole(t *testing.T, p *pb.Problem, v JobView) {
	t.Helper()
	vals := ParseBitstring(v.Values)
	if len(vals) != p.NumVars || !p.Feasible(vals) {
		t.Fatalf("%s: infeasible assignment served", v.ID)
	}
	if got := p.ObjectiveValue(vals); got != *v.Best {
		t.Fatalf("%s: torn result: best=%d but assignment costs %d", v.ID, *v.Best, got)
	}
}
