// Command perfbench is the repository's benchmark. It runs one workload
// in its own process, drives the system through its public Go and HTTP
// APIs, checks the outputs, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (metrics.go,
// endToEnd); with -trace 1 they are the per-layer ones (perLayer), from
// spans the benchmark records around its calls into each module. See
// README.md for the workloads and the layer → metric → workload map.
//
// Usage (from the repository root, through run.sh, which builds first):
//
//	bash perfbench/run.sh --workload crime-beam --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the workloads were tuned on; heldOutSeed was
// not used while writing the benchmark, so a performance claim can be
// shown to hold on inputs it was not tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 9173
)

// config is one run's settings, all from the command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	ops        *opLog
	setupS     []float64     // one entry per set-up, in seconds
	wall       time.Duration // measured wall time of the (untraced) load
	iterations int           // completed mine+commit iterations in wall
	// layers holds the per-layer metrics (traced runs only); a name
	// missing here is a layer this workload bypasses and reads 0.
	layers map[string]float64
	// notes are extra report lines: digests, shard balance, trace check.
	notes []string
	// mismatches are correctness failures; any one fails the run.
	mismatches []string
}

var workloads = map[string]func(config) (*outcome, error){
	"crime-beam":     crimeBeam.run,
	"mammals-spread": mammalsSpread.run,
	"serve-cluster":  runServeCluster,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: crime-beam, mammals-spread or serve-cluster")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("input seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	flag.IntVar(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !report(cfg, out) {
		os.Exit(1)
	}
}

// report prints the human-readable report and the JSON result line, and
// returns whether the outputs were correct.
func report(cfg config, out *outcome) bool {
	fmt.Printf("workload %s  seed %d  seconds %.0f  trace %v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	attempted, failed := out.ops.totals()
	metrics := map[string]metricValue{}
	if cfg.trace {
		for _, d := range perLayer {
			v := out.layers[d.name]
			metrics[d.name] = metricValue{v, d.unit}
			fmt.Printf("  %-26s %14.6g %-6s moves %s; heavy in %s\n", d.name, v, d.unit, d.moves, d.heavy)
		}
	} else {
		e2e, detail := endToEndValues(out)
		for _, d := range endToEnd {
			v, ok := e2e[d.name]
			if !ok {
				fmt.Printf("  %-26s %14s %-6s %s\n", d.name, "omitted", d.unit, detail[d.name])
				continue
			}
			metrics[d.name] = metricValue{v, d.unit}
			fmt.Printf("  %-26s %14.6g %-6s %s\n", d.name, v, d.unit, detail[d.name])
		}
	}
	for _, op := range sortedKeys(out.ops.ops) {
		s := out.ops.ops[op]
		fmt.Printf("  op %-8s attempted %d failed %d\n", op, s.attempted, s.failed)
	}
	for _, e := range out.ops.errs {
		fmt.Printf("  error: %s\n", e)
	}
	for _, n := range out.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, m := range out.mismatches {
		fmt.Printf("  MISMATCH: %s\n", m)
	}
	correct := len(out.mismatches) == 0
	line, err := json.Marshal(result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues computes the end-to-end metrics from a run's operation
// log, with a detail line (sample count, tail percentile) per metric. A
// tail with too few samples is left out of the map.
func endToEndValues(out *outcome) (map[string]float64, map[string]string) {
	vals, detail := map[string]float64{}, map[string]string{}
	setup := sortedCopy(out.setupS)
	vals["setup_s"] = median(setup)
	detail["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setup))
	for _, p := range []struct{ metric, op string }{
		{"create_p50_ms", "create"}, {"mine_p50_ms", "mine"}, {"commit_p50_ms", "commit"}, {"resume_p50_ms", "resume"},
	} {
		xs := out.ops.sorted(p.op)
		vals[p.metric] = finite(median(xs))
		detail[p.metric] = fmt.Sprintf("n=%d", len(xs))
	}
	for _, p := range []struct{ metric, op string }{{"mine_tail_ms", "mine"}, {"commit_tail_ms", "commit"}} {
		xs := out.ops.sorted(p.op)
		pct, v, ok := tail(xs)
		if !ok {
			detail[p.metric] = fmt.Sprintf("too few samples (n=%d, need > %d)", len(xs), tailBeyond)
			continue
		}
		vals[p.metric] = finite(v)
		detail[p.metric] = fmt.Sprintf("p%.4g of n=%d", pct, len(xs))
	}
	vals["iterations_per_s"] = float64(out.iterations) / out.wall.Seconds()
	detail["iterations_per_s"] = fmt.Sprintf("%d iterations in %.3f s", out.iterations, out.wall.Seconds())
	attempted, failed := out.ops.totals()
	vals["success_rate"] = successRate(attempted, failed)
	detail["success_rate"] = fmt.Sprintf("%d of %d operations succeeded", attempted-failed, attempted)
	vals["rss_peak_mb"] = rssPeakMB()
	detail["rss_peak_mb"] = "VmHWM of this process"
	return vals, detail
}

// finite maps the failed-operation latency (+Inf, which JSON cannot
// carry) to the largest float, so a percentile landing on a failure
// still reads as missing every limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// rssPeakMB reads the process's peak resident set size (VmHWM) in MB;
// 0 when /proc is unavailable.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
