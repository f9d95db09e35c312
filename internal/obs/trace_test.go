package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerNilIsDisabledAndFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	// All methods must be nil-safe no-ops.
	tr.Emit(EvBound, "lpr", 1, 2, "ok")
	if tr.Named("x") != nil {
		t.Fatal("nil.Named must stay nil")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer leaked state")
	}
	// Zero allocations on the disabled hot path.
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvBound, "lpr", 42, 57, "ok")
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates: %v allocs/op", allocs)
	}
}

func TestTracerEnabledEmitIsAllocationFree(t *testing.T) {
	tr := NewTracer(1 << 12)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvBound, "lpr", 42, 57, "ok")
	})
	if allocs != 0 {
		t.Fatalf("enabled Emit allocates: %v allocs/op (ring must be preallocated)", allocs)
	}
}

func TestTracerRingOrderAndOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := int64(0); i < 10; i++ {
		tr.Emit(EvRestart, "", i, 0, "")
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len=%d want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped=%d want 6", got)
	}
	evs := tr.Snapshot()
	for i, ev := range evs {
		wantA := int64(6 + i) // oldest retained is #6
		if ev.A != wantA || ev.Seq != uint64(wantA) {
			t.Fatalf("event %d: A=%d seq=%d want %d (oldest-first order)", i, ev.A, ev.Seq, wantA)
		}
	}
}

func TestTracerNamedSharesRing(t *testing.T) {
	tr := NewTracer(16)
	a, b := tr.Named("lpr"), tr.Named("mis")
	a.Emit(EvIncumbent, "", 10, 0, "local")
	b.Emit(EvIncumbent, "", 9, 0, "local")
	evs := tr.Snapshot()
	if len(evs) != 2 || evs[0].Member != "lpr" || evs[1].Member != "mis" {
		t.Fatalf("named handles did not share the ring: %+v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("sequence not global across handles: %+v", evs)
	}
}

// TestTracerNamedNests pins that naming a named handle keeps the outer
// label: a job-named tracer handed to a portfolio stamps "<job>/<member>".
func TestTracerNamedNests(t *testing.T) {
	tr := NewTracer(16)
	job := tr.Named("job-7")
	job.Named("lpr").Emit(EvIncumbent, "", 10, 0, "local")
	job.Named("").Emit(EvIncumbent, "", 9, 0, "local")
	tr.Named("mis").Named("").Emit(EvIncumbent, "", 8, 0, "local")
	evs := tr.Snapshot()
	want := []string{"job-7/lpr", "job-7", "mis"}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Member != w {
			t.Fatalf("event %d: member %q, want %q", i, evs[i].Member, w)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(1 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.Named("w")
			for i := 0; i < 500; i++ {
				h.Emit(EvBound, "lpr", int64(i), 0, "ok")
			}
		}(w)
	}
	wg.Wait()
	if got := int(tr.Dropped()) + tr.Len(); got != 2000 {
		t.Fatalf("retained+dropped=%d want 2000", got)
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(EvSolveStart, "lpr", 12, 0, "")
	tr.Emit(EvBound, "lpr", 5, 9, "incomplete")
	tr.Emit(EvSolveEnd, "", 7, 0, "optimal")
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3", len(lines))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("line %d: seq=%d", i, ev.Seq)
		}
	}
	var mid Event
	if err := json.Unmarshal([]byte(lines[1]), &mid); err != nil {
		t.Fatal(err)
	}
	if mid.Kind != EvBound || mid.Method != "lpr" || mid.A != 5 || mid.B != 9 || mid.Note != "incomplete" {
		t.Fatalf("round-trip mangled event: %+v", mid)
	}
}

func TestEventKindJSONNames(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("kind %s: %v", k, err)
		}
		if back != k {
			t.Fatalf("kind %s round-tripped to %s", k, back)
		}
	}
	var bad EventKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &bad); err == nil {
		t.Fatal("unknown kind name accepted")
	}
}

func TestTracerPretty(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(EvBound, "lgr", 3, 8, "ok")
	tr.Emit(EvDemotion, "lpr", 0, 0, "mis")
	var buf bytes.Buffer
	if err := tr.WritePretty(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"bound", "method=lgr", "demotion", "demoted=lpr to=mis"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pretty output missing %q:\n%s", want, out)
		}
	}
}
