// Command spreadbench is the repository's end-to-end benchmark. It drives
// the simulator only through its package APIs — the sweep pool, the spreadd
// service over loopback HTTP, the cluster coordinator with its durable
// store — on four workloads, checks every output it can against a second
// path, and prints each metric as one "workload metric value unit" line
// followed by a JSON summary line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh --workload sweep-dynamic --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload service-open --trace 1     # per-layer metrics + spans
//	bash bench/run.sh --workload cluster-store --repeat 5    # seeds 1..5, median and spread
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 is a separate run that records spans, reports the per-layer
// metrics and writes the spans as JSONL (see --spans). With --workload all
// (the default) the four workloads run one after another.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dynspread/internal/tracing"
)

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"sweep-dynamic", runSweepDynamic},
	{"sweep-static", runSweepStatic},
	{"service-open", runServiceOpen},
	{"cluster-store", runClusterStore},
}

// endToEnd and perLayer name the metrics the JSON summary carries in
// untraced and traced runs; BENCHMARK.json declares the same two lists.
var endToEnd = []string{
	"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms", "live_heap_mb",
}

var perLayer = []string{
	"trace_overhead", "runtime.gc_cpu_share", "pool.utilization",
	"trial.p50_ms", "trial.tail_ms",
	"sim.ns_per_round", "sim.allocs_per_round", "sim.bytes_per_round",
	"adversary.graph_us", "adversary.allocs_per_graph",
	"graph.diff_us", "graph.connected_us",
	"bitset.union_count_ns.occ10", "bitset.union_count_ns.occ90",
	"bitset.first_not_in_ns.occ10", "bitset.first_not_in_ns.occ90",
	"wire.key_us", "wire.result_encode_us", "wire.result_decode_us",
	"wire.series_encode_us", "wire.series_decode_us",
	"store.put_us", "store.get_us", "store.open_ms", "store.bytes_per_result",
}

// metric is one measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// bench is the state of one workload run: its inputs, the tracer of its
// traced phases, and everything it measured and checked.
type bench struct {
	workload string
	seed     int64
	traced   bool
	procs    int
	sz       sizes
	tmp      string    // scratch directory for stores; removed by the caller
	out      io.Writer // metric lines

	// tracer is non-nil only while a traced phase runs; spans collects its
	// JSONL output (the tracer serializes writes).
	tracer *tracing.Tracer
	spans  bytes.Buffer

	mu                sync.Mutex // guards attempted, failed and problems
	attempted, failed int64
	problems          []string
	metrics           []metric
	digest            string
}

// check counts one checked operation and records a failure when err is
// non-nil. Senders of concurrent requests call it.
func (b *bench) check(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// problem records a correctness failure that is not tied to one operation.
func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) metric(name string, v float64, unit string) {
	b.metrics = append(b.metrics, metric{name, v, unit})
	fmt.Fprintf(b.out, "%s %s %s %s\n", b.workload, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

func (b *bench) note(format string, args ...any) {
	fmt.Fprintf(b.out, "%s # %s\n", b.workload, fmt.Sprintf(format, args...))
}

// setup reports the median of a workload's set-up times.
func (b *bench) setup(seconds []float64) {
	b.metric("setup_s", median(seconds), "s")
	b.note("each set-up, s: %.3g", seconds)
}

// latency reports a latency sample set as its median and tail, printing
// which percentile the tail rule chose and the sample count.
func (b *bench) latency(prefix string, samples []float64) {
	s := summarize(samples)
	b.metric(prefix+"p50_ms", s.p50, "ms")
	b.metric(prefix+"tail_ms", s.tail, "ms")
	b.note("%stail_ms is p%g of %d samples", prefix, s.tailPct, s.n)
}

// batchLatency reports latency samples taken in batches — passes, runs, or
// windows of time — as the median over batches of each one's median and
// tail.
func (b *bench) batchLatency(ops [][]float64) {
	var p50, tails []float64
	var s latencySummary
	for _, op := range ops {
		s = summarize(op)
		p50 = append(p50, s.p50)
		tails = append(tails, s.tail)
	}
	b.metric("latency_p50_ms", median(p50), "ms")
	b.metric("latency_tail_ms", median(tails), "ms")
	b.note("latency_tail_ms is the median over %d batches of p%g of %d samples", len(ops), s.tailPct, s.n)
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spreadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: sweep-dynamic, sweep-static, service-open, cluster-store or all")
	seed := fs.Int64("seed", 1, "input seed; trial seeds are seed·10⁶ + i")
	seconds := fs.Float64("seconds", 20, "measured time per run; workload sizes scale with it")
	trace := fs.Int("trace", 0, "1 runs with tracing on and reports per-layer metrics instead of end-to-end ones")
	spansPath := fs.String("spans", "", "where a traced run writes its spans as JSONL (default .bench_build/spans-<workload>-<seed>.jsonl)")
	repeat := fs.Int("repeat", 1, "run each workload this many times, at seeds seed..seed+N-1, each in a fresh process, and report median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "spreadbench: bad arguments (see -h)")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "spreadbench: unknown workload %q\n", *name)
		return 2
	}
	if *repeat > 1 {
		return repeatRuns(selected, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		_, sum, err := runOne(w, *seed, sizesFor(w.name, *seconds), *trace == 1, *spansPath, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "spreadbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && sum.Correct
		total.Attempted += sum.Attempted
		total.Failed += sum.Failed
		for k, v := range sum.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "spreadbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload and assembles its JSON summary.
func runOne(w workload, seed int64, sz sizes, traced bool, spansPath string, out io.Writer) (*bench, summary, error) {
	tmp, err := os.MkdirTemp("", "spreadbench-")
	if err != nil {
		return nil, summary{}, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		workload: w.name,
		seed:     seed,
		traced:   traced,
		procs:    runtime.GOMAXPROCS(0),
		sz:       sz,
		tmp:      tmp,
		out:      out,
	}
	if err := w.run(b); err != nil {
		return nil, summary{}, err
	}
	if err := checkDigest(pinnedDigests, b.workload, b.seed, b.digest); err != nil {
		b.problem("%v", err)
	}
	b.note("digest %s", b.digest)
	for _, p := range b.problems {
		b.note("FAILED: %s", p)
	}
	if traced {
		if spansPath == "" {
			spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
		}
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return nil, summary{}, err
		}
		if err := os.WriteFile(spansPath, b.spans.Bytes(), 0o644); err != nil {
			return nil, summary{}, err
		}
		b.note("spans written to %s", spansPath)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	sum := summary{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, name := range want {
		m, ok := b.find(name)
		if !ok {
			return nil, summary{}, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, summary{}, fmt.Errorf("metric %s is %v", name, m.value)
		}
		sum.Metrics[name] = metricValue{m.value, m.unit}
	}
	if sum.Attempted == 0 {
		return nil, summary{}, errors.New("no operation was attempted")
	}
	return b, sum, nil
}

func (b *bench) find(name string) (metric, bool) {
	for _, m := range b.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// repeatRuns re-executes this binary once per (workload, seed) so every
// run starts from a fresh process, as separate benchmark runs do, then
// prints each metric's median, quartiles and relative spread
// ((q3−q1)/median). The JSON line carries the medians.
func repeatRuns(selected []workload, seed int64, seconds float64, trace, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "spreadbench: %v\n", err)
		return 1
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			outb, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var sum summary
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); jerr != nil {
				fmt.Fprintf(stderr, "spreadbench: %s seed %d: %v (%v)\n", w.name, seed+int64(i), err, jerr)
				return 1
			}
			total.Correct = total.Correct && sum.Correct && err == nil
			total.Attempted += sum.Attempted
			total.Failed += sum.Failed
			for k, v := range sum.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			q1, med, q3 := quartiles(values[k])
			fmt.Fprintf(stdout, "%s %s median=%g q1=%g q3=%g spread=%.4f n=%d %s values=%.4g\n",
				w.name, k, med, q1, q3, (q3-q1)/med, len(values[k]), units[k], values[k])
			key := k
			if len(selected) > 1 {
				key = w.name + "/" + k
			}
			total.Metrics[key] = metricValue{median(values[k]), units[k]}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "spreadbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}
