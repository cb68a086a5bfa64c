// Command perfbench is the repository's benchmark: one command that runs
// a named workload for a fixed measuring time, checks the program's
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"solve_s": {"value": 1.29, "unit": "s"}, ...}}
//
// With --trace 0 it carries the end-to-end metrics, measured with
// tracing off; with --trace 1 the per-layer metrics, from a run that
// alternates untraced operations with operations traced through the
// program's span recorder. The line before it stamps the environment.
//
// Run it from the repository root with perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload net-solver --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload in turn and exits non-zero if any
// correctness check failed. README.md in this directory defines every
// workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is one workload run's settings.
type runConfig struct {
	seed    uint64
	seconds float64
	traced  bool
}

// workloads maps each workload name to its run function, in the order
// --workload all runs them.
var workloads = []struct {
	name string
	run  func(runConfig) (*outcome, error)
}{
	{"paper-cell", runPaperCell},
	{"sim-scale", runSimScale},
	{"net-solver", runNetSolver},
	{"service-mix", runServiceMix},
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-cell, sim-scale, net-solver, service-mix or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 25, "measuring time per workload, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics of an untraced one")
	flag.Parse()
	if err := validateCatalog(catalog); err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}

	var selected []int
	for i, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal(fmt.Errorf("unknown workload %q (available: %s, all)", *name, strings.Join(names, ", ")))
	}
	allCorrect := true
	for _, i := range selected {
		ok, err := runOne(workloads[i].name, workloads[i].run, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", workloads[i].name, err))
		}
		allCorrect = allCorrect && ok
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its environment stamp, a readable
// table on standard error and the result line. It reports whether every
// correctness check passed.
func runOne(name string, run func(runConfig) (*outcome, error), cfg runConfig) (bool, error) {
	o, err := run(cfg)
	if err != nil {
		return false, err
	}
	res, err := buildResult(o, cfg.traced)
	if err != nil {
		return false, err
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", name, e)
	}
	printTable(name, res)
	stamp, err := json.Marshal(map[string]any{"workload": name, "env": environment(cfg)})
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(line))
	return res.Correct, nil
}

func printTable(name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %16.6g %s\n", n, v.Value, v.Unit)
	}
}

// environment is the stamp printed with every result.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.traced,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, as the go command
// stamped it; a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuSeconds is the CPU time the process has used, user plus system, in
// seconds. The simulator workloads time their single-threaded compute
// with it instead of the wall clock: the kernel leaves the host's steal
// time out of it, and on a shared VM that steal varies between runs by
// more than a regression bound can absorb. It includes the runtime's
// concurrent GC work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad argument fails
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// allocated is the process's cumulative heap allocation, in bytes.
func allocated() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc)
}

// window paces a workload's back-to-back operations through the
// measuring time: another operation starts only while the time left
// covers a typical (median) operation so far, so a run ends close to its
// budget instead of overrunning it by one slow operation. At least min
// operations always run.
type window struct {
	start   time.Time
	seconds float64
	min     int
	durs    []float64
}

func newWindow(seconds float64, min int) *window {
	return &window{start: time.Now(), seconds: seconds, min: min}
}

// more reports whether another operation should start.
func (w *window) more() bool {
	if len(w.durs) < w.min {
		return true
	}
	typical, _ := median(w.durs)
	return time.Since(w.start).Seconds()+typical <= w.seconds
}

// done records one finished operation's duration.
func (w *window) done(d time.Duration) { w.durs = append(w.durs, d.Seconds()) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
