package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/milp"
	"repro/internal/opb"
)

// tinyScale shrinks every family so a whole run takes a few seconds.
var tinyScale = harness.Scale{GroutNets: 8, SynthNodes: 10, McncInputs: 5, AccTeams: 4, SatNodes: 40, WboVars: 6, PerFamily: 2}

func tinyWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name, tinyScale)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastReport runs writeReport and decodes its last line.
func lastReport(t *testing.T, res *result) report {
	t.Helper()
	var buf bytes.Buffer
	if err := writeReport(&buf, res, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return rep
}

// TestTinyRunsEmitEveryMetric runs every workload of BENCHMARK.json at a
// tiny scale, untraced and traced, and checks that each run answers
// correctly and reports exactly the metrics BENCHMARK.json names, each
// with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	for _, ws := range spec.Workloads {
		w := tinyWorkload(t, ws.Name)
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 1, 0, traced, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			rep := lastReport(t, res)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestTamperedWitnessRaisesErrorFrac proves the answer check is live: a
// witness edited after the solve must be counted as an error.
func TestTamperedWitnessRaisesErrorFrac(t *testing.T) {
	for _, name := range []string{"table1-lpr", "acc-sat", "sat-race"} {
		flip := func(v []bool) {
			for i := range v {
				v[i] = !v[i]
			}
		}
		res, err := execute(tinyWorkload(t, name), 1, 0, true, flip)
		if err != nil {
			t.Fatal(err)
		}
		rep := lastReport(t, res)
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: tampered witnesses passed the check (correct=%v failed=%d)", name, rep.Correct, rep.Failed)
		}
		if ef := rep.Metrics["error_frac"].Value; ef <= 0 {
			t.Errorf("%s: error_frac = %v with every witness tampered", name, ef)
		}
	}
}

// TestAccSatBypassesBounds checks the bypass the acc-sat workload exists
// for: objective-free instances never reach the bound pipeline.
func TestAccSatBypassesBounds(t *testing.T) {
	res, err := execute(tinyWorkload(t, "acc-sat"), 1, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := lastReport(t, res)
	for _, name := range []string{"bounds.calls", "lp.warm", "lp.cold", "cuts.rounds", "ls.flips", "portfolio.members"} {
		if v := rep.Metrics[name].Value; v != 0 {
			t.Errorf("acc-sat: %s = %v, want 0", name, v)
		}
	}
	if v := rep.Metrics["engine.propagations"].Value; v <= 0 {
		t.Errorf("acc-sat: engine.propagations = %v, want > 0", v)
	}
}

// TestTable1RowsMatchHarness checks, at the default scale, that the
// table1-lpr rows are the Table 1 optimization rows of table1_measured.txt
// that every column proves, and that the OPB text the solver receives has
// the same optimum as the generated problem: the round trip is lossless.
func TestTable1RowsMatchHarness(t *testing.T) {
	w, _ := findWorkload("table1-lpr", harness.DefaultScale())
	insts, err := setup(w)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, in := range insts {
		got = append(got, in.name)
		p, err := opb.ParseString(in.text)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		m := milp.Solve(p, milp.Options{TimeLimit: w.limit, MaxNodes: 2_000_000})
		if m.Status != milp.StatusOptimal || m.Best != in.optimum {
			t.Errorf("%s: OPB text optimum %d (%v), generated problem %d", in.name, m.Best, m.Status, in.optimum)
		}
	}
	f, err := os.Open("../table1_measured.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		name := fields[0]
		for _, fam := range []string{"grout-", "synth-", "mcnc-"} {
			if strings.HasPrefix(name, fam) && name != "mcnc-10-10" {
				want = append(want, name)
			}
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("rows:\n got %v\nwant %v", got, want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/engine.(*Engine).Propagate":    "engine",
		"repro/internal/lp.(*Problem).pivot":           "lp",
		"repro/internal/bounds.LPR.Estimate.func1":     "bounds",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sort.Slice": "other",
		"repro/internal/pb.(*Problem).ObjectiveValue":       "other",
		"slices.SortFunc[go.shape.[]repro/internal/pb.Lit]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
