package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pb"
)

// LoadConfig parameterizes RunLoad, the daemon's load/chaos harness: many
// concurrent small solves thrown at one Server, with every admitted job
// tracked to its terminal status.
type LoadConfig struct {
	// Jobs is the number of submissions (default 100).
	Jobs int
	// Concurrency is the number of client goroutines (default 8).
	Concurrency int
	// Timeout is the per-job deadline handed to Submit (default 2s).
	Timeout time.Duration
	// Tenants spreads submissions over this many tenant IDs (default 4).
	Tenants int
	// Solver selects the engine for every job (default "lpr").
	Solver string
	// Pool is the number of distinct instances cycled through (default 8;
	// Jobs > Pool exercises the solve-session cache via re-submissions).
	Pool int
	// Seed drives instance generation (default 1).
	Seed int64
	// WaitSlack bounds how long a client waits for a submitted job beyond
	// its deadline before declaring it unresolved (default 30s; generous —
	// the watchdog is supposed to resolve stuck jobs long before this).
	WaitSlack time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Jobs <= 0 {
		c.Jobs = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Solver == "" {
		c.Solver = "lpr"
	}
	if c.Pool <= 0 {
		c.Pool = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WaitSlack <= 0 {
		c.WaitSlack = 30 * time.Second
	}
	return c
}

// LoadReport is RunLoad's outcome: admission split, terminal-status
// histogram, and the client-observed latency distribution (admission to
// terminal status, queue wait included).
type LoadReport struct {
	Jobs     int               `json:"jobs"`
	Admitted int               `json:"admitted"`
	Shed     int               `json:"shed"`
	Rejected int               `json:"rejected"` // non-429 rejections (drain, bad request, admission panic)
	Statuses map[JobStatus]int `json:"statuses"`
	ShedFor  map[string]int    `json:"shed_for,omitempty"` // reason histogram for sheds/rejections
	Rescued  int               `json:"rescued"`            // watchdog demotions observed
	CacheHit int               `json:"cache_hits"`
	// Unresolved counts admitted jobs that never reached a terminal status
	// within the wait budget — the zero-lost-jobs invariant requires 0.
	Unresolved int     `json:"unresolved"`
	WallMs     float64 `json:"wall_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
}

// RunLoad drives the server with cfg.Jobs submissions from
// cfg.Concurrency concurrent clients and accounts for every single one:
// admitted jobs are awaited to a terminal status, sheds are tallied by
// reason. It never fails on shed/timeout/stall outcomes — those are the
// behaviours under test — but Unresolved > 0 means the robustness envelope
// leaked a job.
func RunLoad(s *Server, cfg LoadConfig) LoadReport {
	cfg = cfg.withDefaults()
	pool := loadPool(cfg.Pool, cfg.Seed)
	rep := LoadReport{
		Jobs:     cfg.Jobs,
		Statuses: make(map[JobStatus]int),
		ShedFor:  make(map[string]int),
	}
	var mu sync.Mutex
	var lat []float64

	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				prob := pool[i%len(pool)]
				tenant := fmt.Sprintf("t%d", i%cfg.Tenants)
				t0 := time.Now()
				j, aerr := s.Submit(prob, SubmitOptions{
					Tenant:  tenant,
					Solver:  cfg.Solver,
					Timeout: cfg.Timeout,
				})
				if aerr != nil {
					mu.Lock()
					if aerr.Code == 429 {
						rep.Shed++
					} else {
						rep.Rejected++
					}
					rep.ShedFor[firstLine(aerr.Reason)]++
					mu.Unlock()
					continue
				}
				waitDone(j, cfg.Timeout+cfg.WaitSlack, nil)
				v := j.view()
				mu.Lock()
				rep.Admitted++
				if !v.Status.Terminal() {
					rep.Unresolved++
				} else {
					rep.Statuses[v.Status]++
					lat = append(lat, float64(time.Since(t0).Microseconds())/1000)
				}
				if v.Rescued {
					rep.Rescued++
				}
				if v.CacheHit {
					rep.CacheHit++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	rep.WallMs = float64(time.Since(start).Microseconds()) / 1000

	sort.Float64s(lat)
	rep.P50Ms = percentile(lat, 0.50)
	rep.P90Ms = percentile(lat, 0.90)
	rep.P99Ms = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		rep.MaxMs = lat[n-1]
	}
	return rep
}

// BenchSnapshot renders the report as a repro.bench/v1 snapshot: latency
// percentiles as rows (comparable by pbbench -compare) and the outcome
// counters as run metadata.
func (r LoadReport) BenchSnapshot(solver string) *obs.BenchSnapshot {
	snap := obs.NewBenchSnapshot([]string{"serveload"}, r.WallMs)
	snap.Meta = map[string]string{
		"jobs":       fmt.Sprintf("%d", r.Jobs),
		"admitted":   fmt.Sprintf("%d", r.Admitted),
		"shed":       fmt.Sprintf("%d", r.Shed),
		"rejected":   fmt.Sprintf("%d", r.Rejected),
		"rescued":    fmt.Sprintf("%d", r.Rescued),
		"unresolved": fmt.Sprintf("%d", r.Unresolved),
		"cache_hits": fmt.Sprintf("%d", r.CacheHit),
	}
	for st, n := range r.Statuses {
		snap.Meta["status_"+string(st)] = fmt.Sprintf("%d", n)
	}
	for _, p := range []struct {
		name string
		ms   float64
	}{
		{"latency_p50", r.P50Ms},
		{"latency_p90", r.P90Ms},
		{"latency_p99", r.P99Ms},
		{"latency_max", r.MaxMs},
	} {
		snap.Rows = append(snap.Rows, obs.BenchRow{
			Instance: p.name,
			Family:   "serveload",
			Solver:   solver,
			Solved:   true,
			WallMs:   p.ms,
		})
	}
	return snap
}

// String renders the operator summary line.
func (r LoadReport) String() string {
	return fmt.Sprintf(
		"load: %d jobs → %d admitted, %d shed, %d rejected; statuses %v; rescued=%d cache=%d unresolved=%d; p50=%.1fms p99=%.1fms max=%.1fms wall=%.0fms",
		r.Jobs, r.Admitted, r.Shed, r.Rejected, statusHistogram(r.Statuses),
		r.Rescued, r.CacheHit, r.Unresolved, r.P50Ms, r.P99Ms, r.MaxMs, r.WallMs)
}

func statusHistogram(m map[JobStatus]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, fmt.Sprintf("%s=%d", k, m[JobStatus(k)])...)
	}
	return string(b)
}

// loadPool generates n distinct small instances: a mix of synthesis netlists
// and covering problems, all solvable in milliseconds on their own — the
// load harness stresses the envelope, not the solver.
func loadPool(n int, seed int64) []*pb.Problem {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*pb.Problem, 0, n)
	for len(out) < n {
		var (
			p   *pb.Problem
			err error
		)
		if len(out)%2 == 0 {
			p, err = gen.Synthesis(gen.SynthesisConfig{
				Nodes:    5 + rng.Intn(4),
				Impls:    3,
				Fanout:   1.5,
				Incompat: 0.3,
				Seed:     rng.Int63(),
			})
		} else {
			p, err = gen.MinCover(gen.MinCoverConfig{
				Inputs:    4,
				OnDensity: 0.25,
				Seed:      rng.Int63(),
			})
		}
		if err != nil {
			// Generators only fail on bad configs; skip defensively.
			continue
		}
		out = append(out, p)
	}
	return out
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
