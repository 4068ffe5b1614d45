// Command tagbench is the repository's end-to-end benchmark. It drives the
// Tagger controller, synthesis cache, synthesis core, TCAM compiler,
// deployment pipeline and packet simulator through their public APIs on
// one of four seeded workloads, checks every operation's output, and
// prints one JSON result line:
//
//	go run . --workload fleet-bringup --seed 1 --seconds 10 --trace 0
//
// Each workload is a closed loop with one client: the next operation
// starts only when the previous one has returned. With --trace 0 the
// result carries the end-to-end metrics; with --trace 1 every operation
// runs twice, once bare and once wrapped in the benchmark's own timing
// shims, and the result carries the per-layer metrics plus the tracing
// overhead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run repeats its set-up at least minSetupReps times and until
// setupBudget is spent (at most maxSetupReps times); setup_s is the
// median, so one slow repetition does not move it and a set-up of a few
// milliseconds still gets enough samples. Each repetition starts on a
// collected heap, so none pays for collecting the garbage of the one
// before.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// runner is one workload's state after set-up.
type runner interface {
	// op runs operation i and returns what it cost.
	// tr is nil for an untraced operation; a traced one runs on its own
	// copy of any long-lived state, wrapped in timing shims that record
	// spans into tr. The error reports a failed operation: the program
	// returned an error or its output failed the workload's check.
	op(i int, tr *tracer) (opTime, error)
	// done reports whether a run may stop once time is up: a
	// workload whose output-quality metrics average over a fixed prefix
	// of operations keeps going until that prefix is complete, and one
	// that cycles through a fixed set of inputs stops on a whole pass.
	done(ops int) bool
	// finish runs the workload's end-of-run check.
	finish() error
	// quality returns the untraced run's output-quality metrics:
	// lossless_queues, tcam_entries and rules_written_per_op.
	quality() []metric
	// perLayer returns the traced run's layer metrics.
	perLayer(tr *tracer) []metric
	// digests returns one line per distinct simulated operation (nil for
	// workloads without a simulator).
	digests() []string
}

type benchWorkload struct {
	name  string
	setup func(seed int64) (runner, error)
}

var workloads = []benchWorkload{
	{"fleet-bringup", setupFleet},
	{"fabric-churn", setupChurn},
	{"sim-clos-load", setupSimLoad},
	{"sim-deadlock-observed", setupSimObserved},
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spanDir := flag.String("spans", filepath.Join(".bench_build", "spans"),
		"directory the traced run writes its span log into")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: tagbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:")
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, " %s", wl.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	res, spans, digests, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if spans != nil {
		if err := spans.writeFile(*spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "tagbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	for _, d := range digests {
		fmt.Println("digest", d)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tagbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up several times, then runs operations until the
// measuring time is spent and the workload's fixed prefix is done.
func run(w benchWorkload, seed int64, measure time.Duration, traced bool) (result, *tracer, []string, error) {
	var r runner
	var setups []float64
	for begin := time.Now(); len(setups) < maxSetupReps &&
		(len(setups) < minSetupReps || time.Since(begin) < setupBudget); {
		r = nil
		runtime.GC()
		sw := startWatch()
		var err error
		if r, err = w.setup(seed); err != nil {
			return result{}, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.stop().cpu.Seconds())
	}

	var res result
	var times, tracedTimes []opTime
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	lastFailed := false
	for i := 0; time.Since(start) < measure || !r.done(len(times)); i++ {
		d, err := r.op(i, nil)
		res.Attempted++
		if lastFailed = err != nil; lastFailed {
			res.Failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
		}
		times = append(times, d)
		if traced {
			d, err := r.op(i, tr)
			res.Attempted++
			if lastFailed = err != nil; lastFailed {
				res.Failed++
				fmt.Fprintf(os.Stderr, "traced op %d: %v\n", i, err)
			}
			tracedTimes = append(tracedTimes, d)
		}
	}
	// A failed end-of-run check fails the last operation.
	if err := r.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "end of run: %v\n", err)
		if !lastFailed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	var err error
	wall, cpu := opMs(times)
	if traced {
		_, tracedCPU := opMs(tracedTimes)
		res.Metrics, err = report(perLayerMetrics, append(r.perLayer(tr),
			metric{"op_wall_ms_p50", quantile(wall, 0.5)},
			metric{"op_wall_ms_p90", quantile(wall, 0.9)},
			metric{"trace_overhead_ratio", sum(tracedCPU) / sum(cpu)},
			metric{"unattributed_ms", tr.unattributedMs()}), true)
	} else {
		res.Metrics, err = report(endToEndMetrics, append(r.quality(),
			metric{"setup_s", median(setups)},
			metric{"op_cpu_ms_p50", quantile(cpu, 0.5)},
			metric{"op_cpu_ms_p90", quantile(cpu, 0.9)},
			metric{"peak_rss_mb", peakRSSMB()}), false)
	}
	return res, tr, r.digests(), err
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// allocKB returns the bytes allocated since start, in KiB.
func allocKB(start uint64) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-start) / 1024
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// opTime is what one operation cost the host: wall-clock time, the
// latency a caller sees, and CPU time (user plus system, every thread of
// the process), the work it took, which a shared host's other tenants
// move far less than wall-clock time.
type opTime struct{ wall, cpu time.Duration }

type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() opTime { return opTime{time.Since(s.wall), cpuTime() - s.cpu} }

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// opMs splits operation costs into wall-clock and CPU milliseconds.
func opMs(ts []opTime) (wall, cpu []float64) {
	for _, t := range ts {
		wall = append(wall, ms(t.wall))
		cpu = append(cpu, ms(t.cpu))
	}
	return wall, cpu
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
