package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/solver"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 90, false},
		{100, 90, true},
		{999, 99, false},
		{1000, 99, true},
		{19, 50, false},
		{20, 50, true},
	} {
		v, err := percentile(ramp(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", tc.p, tc.n, err, tc.ok)
		}
		if err == nil {
			if want := math.Ceil(tc.p / 100 * float64(tc.n)); v != want {
				t.Errorf("p%g of %d samples = %v, want %v", tc.p, tc.n, v, want)
			}
		}
	}
	if _, err := percentile(ramp(5000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m, _ := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m, _ := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if _, ok := median(nil); ok {
		t.Error("median of no samples reported")
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	if err := validateCatalog(catalog); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metric{
		{{"solve s", "s", "lower", false}},
		{{"solve_s", "", "lower", false}},
		{{"solve_s", "sec onds", "lower", false}},
		{{"_solve", "s", "lower", false}},
		{{"solve_s", "s", "faster", false}},
		{{"solve_s", "s", "lower", false}, {"solve_s", "s", "lower", true}},
	} {
		if err := validateCatalog(bad); err == nil {
			t.Errorf("catalog %v accepted", bad)
		}
	}
	var e2e int
	for _, m := range catalog {
		if !m.layer {
			e2e++
		}
	}
	if e2e != 5 || !inCatalog("setup_s", false) {
		t.Errorf("%d end-to-end metrics, want the 5 including setup_s", e2e)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the benchmark record and the
// metrics the program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var rec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	var listed []metric
	for _, e := range rec.EndToEnd {
		listed = append(listed, metric{e.Name, e.Unit, e.Better, false})
	}
	for _, e := range rec.PerLayer {
		listed = append(listed, metric{e.Name, e.Unit, e.Better, true})
	}
	if len(listed) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalog %d", len(listed), len(catalog))
	}
	for i, m := range catalog {
		if listed[i] != m {
			t.Errorf("metric %d: BENCHMARK.json has %+v, catalog %+v", i, listed[i], m)
		}
	}
	if len(rec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(rec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if rec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, program %s", i, rec.Workloads[i].Name, w.name)
		}
	}
}

func goodOutcome() *outcome {
	o := newOutcome()
	o.attempted = 4
	for _, m := range catalog {
		o.vals[m.name] = 1.5
	}
	return o
}

func TestDoctoredReportFailsCheck(t *testing.T) {
	for _, traced := range []bool{false, true} {
		if _, err := buildResult(goodOutcome(), traced); err != nil {
			t.Fatalf("traced=%v: honest report rejected: %v", traced, err)
		}
	}
	doctor := map[string]func(*result){
		"correct despite a failure": func(r *result) { r.Failed = 1 },
		"more failed than attempted": func(r *result) {
			r.Correct, r.Failed = false, 5
		},
		"nothing attempted":    func(r *result) { r.Attempted = 0 },
		"metric dropped":       func(r *result) { delete(r.Metrics, "job_p50_s") },
		"unit changed":         func(r *result) { r.Metrics["solve_s"] = value{1.5, "ms"} },
		"not a number":         func(r *result) { r.Metrics["setup_s"] = value{math.NaN(), "s"} },
		"zero end-to-end time": func(r *result) { r.Metrics["solve_s"] = value{0, "s"} },
		"metric added":         func(r *result) { r.Metrics["speedup"] = value{2, "x"} },
		"per-layer metric in an untraced run": func(r *result) {
			r.Metrics["sim.events"] = value{10, "count"}
		},
	}
	for name, f := range doctor {
		res, err := buildResult(goodOutcome(), false)
		if err != nil {
			t.Fatal(err)
		}
		f(&res)
		if err := checkResult(res, false); err == nil {
			t.Errorf("%s: doctored report passed the check", name)
		}
	}
	missing := goodOutcome()
	delete(missing.vals, "jobs_per_sec")
	if _, err := buildResult(missing, false); err == nil {
		t.Error("a run that did not measure jobs_per_sec passed")
	}
	failed := goodOutcome()
	failed.fail(os.ErrInvalid)
	if res, err := buildResult(failed, false); err != nil || res.Correct || res.Failed != 1 {
		t.Errorf("failed operation reported as correct=%v failed=%d (err %v)", res.Correct, res.Failed, err)
	}
}

func TestDoctoredSolveFailsCheck(t *testing.T) {
	res := &solver.Result{Steps: 100, StateMsgs: 40, Time: 2.5, Decisions: 7, ExecutedFlops: []float64{1e6, 2e6}}
	ref := countsOf(res)
	if err := countsOf(res).sameAs(ref); err != nil {
		t.Fatal(err)
	}
	if err := checkFlops(res, 3e6); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(*solver.Result){
		"events":        func(r *solver.Result) { r.Steps++ },
		"state msgs":    func(r *solver.Result) { r.StateMsgs-- },
		"virtual time":  func(r *solver.Result) { r.Time = math.Nextafter(r.Time, 3) },
		"decision kept": func(r *solver.Result) { r.Decisions = 6 },
	} {
		d := *res
		f(&d)
		if err := countsOf(&d).sameAs(ref); err == nil {
			t.Errorf("solve with changed %s passed the repeat check", name)
		}
	}
	d := *res
	d.ExecutedFlops = []float64{1e6, 2e6 + 1}
	if err := checkFlops(&d, 3e6); err == nil {
		t.Error("solve that lost flops passed the flop check")
	}
}

func TestJobMixIsSeededThreeToOne(t *testing.T) {
	order := func(seed uint64) string {
		m := newJobMix(seed)
		var b strings.Builder
		for i := 0; i < 400; i++ {
			b.WriteString(m.take().Kind[:1])
		}
		return b.String()
	}
	a := order(7)
	if a != order(7) {
		t.Fatal("one seed gave two job orders")
	}
	if a == order(8) {
		t.Error("seeds 7 and 8 gave the same job order")
	}
	for i := 0; i < len(a); i += 4 {
		if n := strings.Count(a[i:i+4], "a"); n != 1 {
			t.Fatalf("block %d has %d app jobs: %s", i/4, n, a[i:i+4])
		}
	}
}

func TestSpanDurationsPairBySpanID(t *testing.T) {
	events := []chaos.Event{
		{Ev: chaos.EvSpanBegin, Rank: 0, Sid: 1, Span: "decision.acquire", T: 1},
		{Ev: chaos.EvSpanBegin, Rank: 1, Sid: 2, Span: "decision.acquire", T: 1.5},
		{Ev: chaos.EvSpanEnd, Rank: 1, Sid: 2, Span: "decision.acquire", T: 1.75},
		{Ev: chaos.EvSpanEnd, Rank: 0, Sid: 1, Span: "decision.acquire", T: 3},
		{Ev: chaos.EvSpanEnd, Rank: 0, Sid: 9, Span: "termdet.idle", T: 4},
	}
	got := spanDurations(events)["decision.acquire"]
	if len(got) != 2 || got[0] != 0.25 || got[1] != 2 {
		t.Errorf("acquire durations %v, want [0.25 2]", got)
	}
	if len(spanDurations(events)["termdet.idle"]) != 0 {
		t.Error("an unopened span got a duration")
	}
}
