// Command perfbench is streamhist's benchmark. It drives a freshly built
// streamhistd over loopback TCP, with a data directory and fsync on,
// through one of three fixed-work workloads, checks every answer
// against its own computations, and prints the end-to-end metrics as
// the last line of standard output:
//
//	bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 32 --trace 0
//
// With --trace 1 it instead replays the same inputs in-process through
// the daemon's layers, times each layer call, writes the spans as a
// Perfetto-loadable JSON file and prints the per-layer metrics. With
// --repeat N it runs the workload N times on consecutive seeds and
// prints, per metric, the median, the quartiles and the largest
// deviation, next to a fixed CPU probe timed around each run. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// units names every metric's unit.
var units = map[string]string{
	"setup_s":             "s",
	"ingest_points_per_s": "1/s",
	"ingest_p50_ms":       "ms",
	"ingest_p99_ms":       "ms",
	"query_p50_ms":        "ms",
	"query_p99_ms":        "ms",
	"recover_s":           "s",
	"rss_peak_mb":         "MB",
	"state_kb_per_stream": "KB",
	"sse_over_opt":        "ratio",
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest-durable, read-after-write or incremental-audit")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 32, "size of the measured phase, in seconds of work on the reference machine")
		traced  = flag.Int("trace", 0, "1: in-process traced run printing per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and print the spread of every metric")
		bin     = flag.String("daemon", "", "streamhistd binary (run.sh builds it)")
		work    = flag.String("work", ".bench_build/work", "scratch directory for data directories and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 {
		fail(fmt.Errorf("--seconds must be at least 1"))
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *traced == 0 && *bin == "" {
		fail(fmt.Errorf("--daemon is required"))
	}
	if *repeat > 0 {
		repeatRuns(*bin, *work, w, *seed, *seconds, *repeat)
		return
	}
	t := newTally()
	for _, err := range selfTest() {
		t.check("self-test", err)
	}
	var metrics map[string]metricOut
	if *traced == 1 {
		metrics, err = runTraced(filepath.Join(*work, "traced"), w, *seed, t)
	} else {
		var m map[string]float64
		m, err = runUntraced(*bin, filepath.Join(*work, "run"), w, *seed, *seconds, t)
		metrics = withUnits(m)
	}
	if err != nil {
		fail(err)
	}
	emit(t, metrics)
}

func withUnits(m map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(m))
	for k, v := range m {
		out[k] = metricOut{Value: v, Unit: units[k]}
	}
	return out
}

// emit prints the operation counts to standard error and the result
// object as the last line of standard output.
func emit(t *tally, metrics map[string]metricOut) {
	attempted, failed := t.totals()
	fmt.Fprintln(os.Stderr, "operations:")
	t.report(os.Stderr)
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail(fmt.Errorf("metric %s is %v", k, m.Value))
		}
	}
	out, err := json.Marshal(resultOut{
		Correct:   t.checksBad == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// cpuProbe times a fixed integer loop. Read before and after a run, it
// tells a slow phase of the host from a slow program.
func cpuProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return ms(time.Since(t0))
}

// cpuSteal reads the machine's stolen and total CPU time (in ticks) from
// /proc/stat: the share a virtual machine's host took from it.
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] { // user .. steal
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// repeatRuns runs the untraced workload n times on seeds seed..seed+n-1
// and prints every metric's median, quartiles (Python's
// statistics.quantiles(n=4)) and largest deviation from the median, and
// the CPU probe around each run.
func repeatRuns(bin, work string, w *workload, seed uint64, seconds, n int) {
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		before := cpuProbe()
		s0, t0 := cpuSteal()
		t := newTally()
		m, err := runUntraced(bin, filepath.Join(work, "run"), w, seed+uint64(i), seconds, t)
		s1, t1 := cpuSteal()
		after := cpuProbe()
		if err != nil {
			fail(err)
		}
		attempted, failed := t.totals()
		fmt.Printf("run %2d seed %d: probe %.0f/%.0f ms, steal %.0f%%, attempted %d failed %d",
			i, seed+uint64(i), before, after, 100*float64(s1-s0)/float64(max(t1-t0, 1)), attempted, failed)
		for _, k := range sortedKeys(m) {
			values[k] = append(values[k], m[k])
			fmt.Printf(" %s=%.4g", k, m[k])
		}
		fmt.Println()
	}
	fmt.Printf("%-22s %12s %12s %12s %10s %10s\n", "metric", "median", "q1", "q3", "iqr/med", "maxdev")
	for _, k := range sortedKeys(values) {
		v := values[k]
		med := median(v)
		q1, q3 := quartiles(v)
		dev := 0.0
		for _, x := range v {
			dev = math.Max(dev, math.Abs(x-med)/med)
		}
		fmt.Printf("%-22s %12.5g %12.5g %12.5g %9.1f%% %9.1f%%\n", k, med, q1, q3, 100*(q3-q1)/med, 100*dev)
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), whose
// default method is "exclusive".
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		m := float64(len(s)+1) * p
		j := max(1, min(int(math.Floor(m)), len(s)-1))
		d := m - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
