package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metric is one catalog entry. BENCHMARK.json lists the same names,
// units and directions; TestCatalogMatchesBenchmarkJSON keeps the two in
// step.
type metric struct {
	name, unit, better string
	// layer is false for end-to-end metrics (reported with --trace 0)
	// and true for per-layer ones (reported with --trace 1).
	layer bool
}

// Units that need a word: app_s is application seconds (simulated on the
// sim workloads, wall clock on net-solver and service-mix), sim_s is
// simulated seconds, x is a ratio.
var catalog = []metric{
	{"setup_s", "s", "lower", false},
	{"solve_s", "s", "lower", false},
	{"jobs_per_sec", "1/s", "higher", false},
	{"job_p50_s", "s", "lower", false},
	{"peak_rss_mb", "MB", "lower", false},

	{"sparse.generate_s", "s", "lower", true},
	{"ordering.order_s", "s", "lower", true},
	{"symbolic.analyze_s", "s", "lower", true},
	{"mapping.map_s", "s", "lower", true},
	{"symbolic.factor_nnz", "count", "lower", true},

	{"sim.run_s", "s", "lower", true},
	{"sim.events", "count", "lower", true},
	{"sim.events_per_sec", "1/s", "higher", true},
	{"sim.alloc_bytes_per_event", "B", "lower", true},

	{"core.decisions", "count", "higher", true},
	{"core.state_msgs", "count", "lower", true},
	{"core.state_bytes", "B", "lower", true},
	{"core.state_msgs_per_decision", "x", "lower", true},
	{"core.snapshot_rounds", "count", "lower", true},
	{"core.snapshot_restarts", "count", "lower", true},
	{"core.acquire_s", "app_s", "lower", true},
	{"core.busy_s", "app_s", "lower", true},

	{"termdet.ctrl_msgs", "count", "lower", true},
	{"termdet.detect_latency_s", "app_s", "lower", true},

	{"solver.virt_time_s", "sim_s", "lower", true},
	{"solver.max_peak_mem", "entries", "lower", true},
	{"solver.data_msgs", "count", "lower", true},
	{"solver.flops", "flop", "lower", true},

	{"net.mesh_up_s", "s", "lower", true},
	{"net.teardown_s", "s", "lower", true},
	{"net.frames_in", "count", "lower", true},
	{"net.wire_bytes_in", "B", "lower", true},
	{"net.bytes_per_frame", "B", "lower", true},
	{"net.frames_per_sec", "1/s", "higher", true},
	{"net.alloc_bytes_per_frame", "B", "lower", true},
	{"net.overhead_x", "x", "lower", true},
	{"net.solve_p90_s", "s", "lower", true},

	{"core.acquire_p50_s", "s", "lower", true},
	{"core.acquire_p99_s", "s", "lower", true},
	{"core.plan_s", "s", "lower", true},
	{"net.transfer_s", "s", "lower", true},
	{"core.snapshot_round_p50_s", "app_s", "lower", true},
	{"termdet.idle_share", "x", "lower", true},
	{"solver.compute_share", "x", "higher", true},
	{"obs.trace_overhead", "x", "lower", true},

	{"service.queue_wait_p50_s", "s", "lower", true},
	{"service.queue_wait_p99_s", "s", "lower", true},
	{"service.run_p50_s", "s", "lower", true},
	{"service.run_p99_s", "s", "lower", true},
	{"service.job_p99_s", "s", "lower", true},
	{"service.synthetic_job_p50_s", "s", "lower", true},
	{"service.app_job_p50_s", "s", "lower", true},
	{"service.state_msgs_per_job", "count", "lower", true},
	{"service.decisions_per_job", "count", "higher", true},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateCatalog checks every metric name and unit against the
// benchmark record's grammar, and that no name repeats.
func validateCatalog(ms []metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.name, m.better)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what one workload run measured: operation counts plus
// every metric it produced, by name.
type outcome struct {
	attempted, failed int
	// errs holds the first few failed checks, for the log.
	errs []string
	vals map[string]float64
}

func newOutcome() *outcome { return &outcome{vals: map[string]float64{}} }

// fail counts one failed operation; its numbers are discarded by the
// caller, never reported.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// setMedian reports the median of xs under name when there is a sample.
func (o *outcome) setMedian(name string, xs []float64) {
	if v, ok := median(xs); ok {
		o.vals[name] = v
	}
}

// setPercentile reports the p-th percentile of xs under name when xs is
// large enough for it; otherwise the metric is left out and reads 0.
func (o *outcome) setPercentile(name string, xs []float64, p float64) {
	if v, err := percentile(xs, p); err == nil {
		o.vals[name] = v
	}
}

// overhead reports obs.trace_overhead: how much longer the traced
// operations took than the untraced ones of the same run, as a share of
// the untraced median.
func overhead(o *outcome, traced, untraced []float64) {
	t, ok1 := median(traced)
	u, ok2 := median(untraced)
	if ok1 && ok2 && u > 0 {
		o.vals["obs.trace_overhead"] = t/u - 1
	}
}

// setRSS reports the peak resident set as peak_rss_mb.
func setRSS(o *outcome) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	o.vals["peak_rss_mb"] = rss
	return nil
}

// buildResult turns a workload outcome into the printed result: the
// end-to-end metrics for an untraced run, the per-layer ones for a
// traced run. A per-layer metric the workload did not produce belongs to
// a layer the workload bypasses and reads 0.
func buildResult(o *outcome, traced bool) (result, error) {
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range catalog {
		if m.layer != traced {
			continue
		}
		v, ok := o.vals[m.name]
		if !ok && !m.layer {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	return res, checkResult(res, traced)
}

// checkResult is the last correctness gate before a result is printed:
// the counts must be consistent, correct must agree with them, and every
// metric of the mode must be present, finite, in its catalog unit, and
// for end-to-end metrics positive.
func checkResult(res result, traced bool) error {
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	if res.Failed < 0 || res.Failed > res.Attempted {
		return fmt.Errorf("failed %d of %d attempted", res.Failed, res.Attempted)
	}
	if res.Correct != (res.Failed == 0) {
		return fmt.Errorf("correct=%v with %d failed operations", res.Correct, res.Failed)
	}
	want := 0
	for _, m := range catalog {
		if m.layer != traced {
			continue
		}
		want++
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", m.name)
		case v.Unit != m.unit:
			return fmt.Errorf("metric %s in %q, want %q", m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s is %v", m.name, v.Value)
		case !m.layer && v.Value <= 0:
			return fmt.Errorf("end-to-end metric %s is %v, want > 0", m.name, v.Value)
		}
	}
	if len(res.Metrics) != want {
		var extra []string
		for name := range res.Metrics {
			if !inCatalog(name, traced) {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return nil
}

func inCatalog(name string, traced bool) bool {
	for _, m := range catalog {
		if m.name == name && m.layer == traced {
			return true
		}
	}
	return false
}
