// Command e2ebench is the repository's wall-clock end-to-end benchmark. It
// runs one workload against a live server in the slimd -flow -codec2
// configuration, driven from outside through public functions only, and
// reports input-to-paint latency, CPU, wire bytes, allocations and heap
// per input, with every console's pixels checked on every run.
//
//	bash e2ebench/run.sh --workload type --seed 1 --seconds 10 --trace 0
//
// Workloads: type and scroll (open-loop over UDP loopback), hotdesk (a
// session hopping between a gen-2 and a gen-1 UDP console) and desks (16
// closed-loop desks on the in-process fabric). With --trace 0 the last
// line of output is a JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger, measured in a separate traced
// half of the window. The lines before it print the same numbers as a
// table with units and sample counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// result is one run's outcome.
type result struct {
	attempted int
	failed    int
	// stalePx counts console pixels that differ from the session after
	// the drain; -1 when a console never drained.
	stalePx  int
	samples  int // inputs behind the latency percentiles, failed ones included
	lagP99ms float64
	lagLimit time.Duration
	// e2e holds the end-to-end metrics (untraced runs), layers the
	// per-layer ledger (traced runs).
	e2e    map[string]float64
	layers map[string]float64
	notes  []string
}

// lagLimitFor is how late an open-loop generator whose consoles each send
// an input every period (on average) may run, at its 99th percentile,
// before the run is flagged instead of scored: a tenth of the period, and
// at least 20 ms, which a timer wake-up on a busy two-core host stays
// under. Beyond it the offered load was no longer the schedule's.
func lagLimitFor(period time.Duration) time.Duration { return max(20*time.Millisecond, period/10) }

// noteStale records the drain check's outcome; a console that never
// drained is reported, not an error.
func (r *result) noteStale(stale int, err error) error {
	switch {
	case errors.Is(err, errNotDrained):
		r.stalePx = -1
		r.notes = append(r.notes, "stale_px=-1: a console was still receiving display traffic after the drain wait")
		progress("not drained")
		return nil
	case err != nil:
		return err
	}
	r.stalePx = stale
	progress("drained: %d stale pixels", stale)
	return nil
}

var workloads = map[string]func(runConfig) (*result, error){
	"type":    runType,
	"scroll":  runScroll,
	"hotdesk": runHotdesk,
	"desks":   runDesks,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var processStart = time.Now()

// progress logs a step of the run to standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench %7.3fs: %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "type", "workload: type|scroll|hotdesk|desks, or all to run each in turn")
	seed := fs.Uint64("seed", 1, "input seed; each workload's inputs are a pure function of it")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad flags (seconds %d, trace %d)\n", *seconds, *trace)
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	cfg := runConfig{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	return runOne(cfg, stdout, stderr)
}

// runAll runs every workload in turn, each in its own child process so a
// server still busy after one workload cannot charge its CPU to the next.
func runAll(args []string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(os.Args[0], append(args, "--workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"type", "scroll", "hotdesk", "desks"}

func runOne(cfg runConfig, stdout, stderr io.Writer) int {
	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	behind := res.lagLimit > 0 && res.lagP99ms > float64(res.lagLimit)/float64(time.Millisecond)
	if behind {
		// The numbers are printed for diagnosis but not scored: the
		// system did not receive the schedule's load.
		fmt.Fprintf(stderr, "e2ebench: %s: generator fell behind (lag p99 %.2f ms > %v); run not scored\n",
			cfg.workload, res.lagP99ms, res.lagLimit)
	}
	if code := report(stdout, stderr, cfg, res, !behind); code != 0 || !behind {
		return code
	}
	return 3
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the table and, for a scored run, the JSON result as the
// last line.
func report(stdout, stderr io.Writer, cfg runConfig, res *result, scored bool) int {
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, int(cfg.window/time.Second), cfg.trace)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	failedFrac := ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(stdout, "  attempted=%d failed=%d itp_samples=%d loadgen.lag_p99_ms=%.3f\n",
		res.attempted, res.failed, res.samples, res.lagP99ms)
	metrics := make(map[string]metricValue)
	defs := endToEnd
	vals := res.e2e
	if cfg.trace {
		defs, vals = ledger, res.layers
	}
	vals["failed_frac"] = failedFrac
	vals["stale_px"] = float64(res.stalePx)
	vals["loadgen.lag_p99_ms"] = res.lagP99ms
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: metric %s was not measured\n", d.Name)
			return 1
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if cfg.trace {
			fmt.Fprintf(stdout, "  %-34s %14.6g %-6s | %-27s | moves %s on %s\n", d.Name, v, d.Unit, d.Layer, d.Moves, d.On)
		} else {
			fmt.Fprintf(stdout, "  %-34s %14.6g %-6s n=%d\n", d.Name, v, d.Unit, res.samples)
		}
	}
	if !cfg.trace {
		fmt.Fprintf(stdout, "  not bounded: itp_p99_ms=%.6g ms (n=%d) failed_frac=%.4g stale_px=%d\n",
			vals["itp_p99_ms"], res.samples, failedFrac, res.stalePx)
	}
	if !scored {
		return 0
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.stalePx == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
