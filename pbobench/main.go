// Command pbobench is the repository's end-to-end benchmark. It generates
// one workload's instances, feeds the solver only their OPB text in a
// closed loop (one solve at a time), checks every answer and prints each
// metric by name with its unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash pbobench/run.sh --workload table1-lpr --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 measures an untraced
// loop and then a CPU-profiled loop, and reports the per-layer metrics of
// the profiled one. See README.md for the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// minSolves keeps at least ten solves beyond solve_ms_p90 in an untraced
// run.
const minSolves = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-lpr, acc-sat or sat-race")
	seed := fs.Int64("seed", 1, "seed of the closed loop's solve order")
	seconds := fs.Int("seconds", 30, "how long the loop measures")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a CPU-profiled run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name, harness.DefaultScale())
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "pbobench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, nil)
	if err != nil {
		fmt.Fprintf(stderr, "pbobench: %v\n", err)
		return 1
	}
	if err := writeReport(stdout, res, *seed); err != nil {
		fmt.Fprintf(stderr, "pbobench: %v\n", err)
		return 1
	}
	return 0
}

// writeReport prints the run's metrics, one per line with its unit, and
// then the result object as the last line: the end-to-end metrics for an
// untraced run, the per-layer ones for a traced run.
func writeReport(out io.Writer, res *result, seed int64) error {
	specs := endToEnd
	if res.base != nil {
		specs = perLayer
	}
	rep := report{Metrics: map[string]metric{}}
	wrong := 0
	for _, l := range []*loop{res.base, res.main} {
		if l == nil {
			continue
		}
		rep.Attempted += len(l.outcomes)
		for _, o := range l.outcomes {
			switch {
			case o.err != "":
				fmt.Fprintf(out, "error: %s\n", o.err)
				wrong++
				rep.Failed++
			case !res.w.race && !o.solved:
				rep.Failed++
			}
		}
	}
	rep.Correct = wrong == 0
	fmt.Fprintf(out, "workload %s seed %d: %d instances, %d solves in %.1f s\n",
		res.w.name, seed, len(res.insts), len(res.main.outcomes), res.main.elapsed.Seconds())
	for _, s := range specs {
		v := s.value(res)
		rep.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Fprintf(out, "%-26s %14.6g %s\n", s.name, v, s.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute sets w up setupRepeats times and measures it for dur. A traced
// run alternates untraced passes with CPU-profiled ones. tamper is a test
// hook (see solveOne).
func execute(w workload, seed int64, dur time.Duration, traced bool, tamper func([]bool)) (*result, error) {
	res := &result{w: w}
	for i := 0; i < setupRepeats; i++ {
		insts, took, err := timedSetup(w)
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", w.name, err)
		}
		res.insts = insts
		res.setups = append(res.setups, took)
	}
	rng := rand.New(rand.NewSource(seed))
	if !traced {
		res.main = runLoop(w, res.insts, rng, dur, minSolves, tamper)
		return res, nil
	}
	// Untraced and profiled passes alternate, so drift over the run
	// (warm-up, other load on the machine) biases neither side of the
	// tracing overhead.
	res.base, res.main, res.cpu = &loop{}, &loop{}, map[string]float64{}
	for start := time.Now(); len(res.main.outcomes) == 0 || time.Since(start) < dur; {
		res.base.add(runLoop(w, res.insts, rng, 0, 0, tamper))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		res.main.add(runLoop(w, res.insts, rng, 0, 0, tamper))
		pprof.StopCPUProfile()
		if err := cpuSamples(prof.Bytes(), res.cpu); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timedSetup sets w up from a clean heap and times it on the CPU clock of
// its thread.
func timedSetup(w workload) ([]instance, time.Duration, error) {
	runtime.GC()
	clock := newSolveClock(true)
	defer clock.release()
	start := clock.now()
	insts, err := setup(w)
	return insts, clock.now() - start, err
}
