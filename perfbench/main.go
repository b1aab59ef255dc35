// Command perfbench is the repository's benchmark: four seeded workloads
// (partition, amr-loop, service, wire-campaign) driven through the optipart
// facade and the layer packages' public functions. An untraced run prints
// the end-to-end metrics; a traced run (--trace 1) adds probes after traced
// ops and prints the per-layer metrics. Every run checks its outputs and
// exits non-zero when a check fails. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload partition --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"optipart"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test sizes, set by the self-test
	out      string // directory for span files and result records
}

// bench accumulates one run's measurements. Workloads call its methods;
// main turns them into metrics.
type bench struct {
	cfg  config
	tr   *tracer // nil in an untraced run
	heap *heapProbe

	mu        sync.Mutex
	setup     samples            // seconds per setup repetition
	op        samples            // ms per untraced op
	tracedOp  samples            // ms per traced op (traced run only)
	calls     map[string]samples // ms per facade call kind
	tp        samples            // modeled Tp (s) of each op's adopted placement
	layer     map[string]float64 // per-layer values set by the workload
	attempted int
	failed    int
	failures  []string
	start     time.Time
	window    time.Duration
	allocated uint64
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, heap: newHeapProbe(), calls: map[string]samples{}, layer: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// setupReps is how many times each run sets its workload up; setup_s is
// the median.
const setupReps = 5

// setupRepeat times setupReps repetitions of a workload's setup; each
// repetition builds everything from the seed again, and the median is
// setup_s. A collection before each repetition starts every one from the
// same heap, so garbage left by the one before does not bill it.
func (b *bench) setupRepeat(f func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		if err := f(); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t).Seconds())
	}
	return nil
}

// tracerFor returns the tracer for cycle k (a partition op, a history
// cycle, a campaign pair, a service round): every other cycle of a traced
// run is traced, with probes after its ops, and the rest run exactly as in
// an untraced run so the two can be compared on the same op mix.
func (b *bench) tracerFor(k int) *tracer {
	if b.tr != nil && k%2 == 1 {
		return b.tr
	}
	return nil
}

// openWindow starts the measured interval.
func (b *bench) openWindow() {
	runtime.GC()
	b.heap.start()
	b.start = time.Now()
}

// closeWindow ends the measured interval.
func (b *bench) closeWindow() {
	b.window = time.Since(b.start)
	b.allocated = b.heap.allocated()
}

// deadline is when the measured interval should end.
func (b *bench) deadline() time.Time {
	return b.start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
}

// recordOp files one op's latency and the error its checks returned.
func (b *bench) recordOp(d time.Duration, traced bool, tp float64, err error) {
	b.heap.sample()
	b.mu.Lock()
	defer b.mu.Unlock()
	if traced {
		b.tracedOp = append(b.tracedOp, ms(d))
	} else {
		b.op = append(b.op, ms(d))
	}
	b.tp = append(b.tp, tp)
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// recordCall files the latency of one facade call of a given kind.
func (b *bench) recordCall(kind string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls[kind] = append(b.calls[kind], ms(d))
}

// fail records a check failure outside any op (setup, end-of-run checks).
func (b *bench) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, err.Error())
	}
}

// endToEndValues computes the untraced run's metrics.
func (b *bench) endToEndValues() map[string]float64 {
	ops := len(b.op) + len(b.tracedOp)
	return map[string]float64{
		"setup_s":         b.setup.median(),
		"op_ms_p50":       b.op.median(),
		"op_ms_p90":       b.op.quantile(0.9),
		"req_per_s":       float64(ops) / b.window.Seconds(),
		"tp_model_s":      b.tp.mean(),
		"peak_heap_mb":    b.heap.peakMiB(),
		"alloc_mb_per_op": float64(b.allocated) / (1 << 20) / float64(ops),
	}
}

// perLayerValues computes the traced run's metrics; every name of the
// catalogue is present, layers the workload does not exercise are 0.
func (b *bench) perLayerValues() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	for k, v := range b.layer {
		out[k] = v
	}
	if len(b.op) > 0 && len(b.tracedOp) > 0 {
		out["trace.overhead_frac"] = b.tracedOp.median()/b.op.median() - 1
	}
	return out
}

// world runs f on p in-process ranks. Only the checked runtime counts each
// rank's collectives (Comm.CollectiveIndex), so measured ops use the plain
// runtime and warm-up passes the checked one to take the exact counts.
func world(p int, m optipart.Machine, checked bool, f func(c *optipart.Comm)) (*optipart.Stats, error) {
	if !checked {
		return optipart.Run(p, m, f), nil
	}
	return optipart.RunChecked(p, m, func(c *optipart.Comm) error { f(c); return nil })
}

var workloads = map[string]func(*bench) error{
	"partition":     runPartition,
	"amr-loop":      runAMR,
	"service":       runService,
	"wire-campaign": runWire,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "partition, amr-loop, service or wire-campaign")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured interval")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files and result records")
	flag.Parse()
	cfg.trace = *traceFlag != 0
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload, prints the human-readable report, writes the
// run record (and span file when traced), and returns the result line.
func execute(cfg config, run func(*bench) error) (result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	optipart.SetWorkers(runtime.NumCPU())
	b := newBench(cfg)
	err := run(b)
	if err != nil {
		b.fail(err)
	}
	if b.attempted == 0 {
		b.attempted = 1 // the run was attempted even if setup failed
		b.failed = max(b.failed, 1)
	}

	catalogue, values := endToEnd, map[string]float64{}
	if cfg.trace {
		catalogue, values = perLayer, b.perLayerValues()
	} else if err == nil {
		values = b.endToEndValues()
	}
	res := result{Correct: b.failed == 0 && err == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range catalogue {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	env := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "tiny": cfg.tiny,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "par_workers": optipart.Workers(),
		"go": runtime.Version(), "window_s": b.window.Seconds(),
	}
	counts := map[string]int{"op": len(b.op), "traced_op": len(b.tracedOp), "setup": len(b.setup)}
	for k, s := range b.calls {
		counts[k] = len(s)
	}
	report(b, env, counts, catalogue, res)
	if werr := writeRecords(b, env, counts, res); werr != nil && err == nil {
		err = werr
	}
	return res, err
}

// report prints the human-readable lines that precede the result line:
// the environment, every metric by name with its unit, and the sample count
// behind each timing.
func report(b *bench, env map[string]any, counts map[string]int, catalogue []metric, res result) {
	fmt.Printf("perfbench %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d par.Workers=%d %s\n",
		env["workload"], env["seed"], env["trace"], env["nproc"], env["gomaxprocs"], env["par_workers"], env["go"])
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("  samples %-10s %d\n", k, counts[k])
	}
	tail := func(s samples, q float64) string {
		if s.tailOK(q) {
			return ""
		}
		return " (fewer than 10 samples beyond)"
	}
	fmt.Printf("  setup repetitions (s):")
	for _, v := range b.setup {
		fmt.Printf(" %.4f", v)
	}
	fmt.Println()
	fmt.Printf("  op p90 %.3f ms%s\n", b.op.quantile(0.9), tail(b.op, 0.9))
	kinds := make([]string, 0, len(b.calls))
	for kind := range b.calls {
		kinds = append(kinds, kind)
	}
	slices.Sort(kinds)
	for _, kind := range kinds {
		s := b.calls[kind]
		fmt.Printf("  call %-8s p50 %.3f ms  p90 %.3f ms%s  p99 %.3f ms%s  (n=%d)\n",
			kind, s.median(), s.quantile(0.9), tail(s, 0.9), s.quantile(0.99), tail(s, 0.99), len(s))
	}
	for _, m := range catalogue {
		mv := res.Metrics[m.Name]
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, mv.Value, mv.Unit)
	}
	if !b.cfg.trace {
		// Per-layer values the untraced run measures too (the per-call
		// and hit/miss timings, the service counters).
		for _, m := range perLayer {
			if v, ok := b.layer[m.Name]; ok {
				fmt.Printf("  %-30s %14.6g %s (per-layer)\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, f := range b.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// writeRecords writes the run record (environment, sample counts, metrics)
// and, for a traced run, the Chrome trace-event span file.
func writeRecords(b *bench, env map[string]any, counts map[string]int, res result) error {
	if err := os.MkdirAll(b.cfg.out, 0o755); err != nil {
		return err
	}
	trace := 0
	if b.cfg.trace {
		trace = 1
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", b.cfg.workload, b.cfg.seed, trace)
	rec, err := json.MarshalIndent(map[string]any{"env": env, "samples": counts, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.cfg.out, stem+".json"), rec, 0o644); err != nil {
		return err
	}
	if b.tr != nil {
		return b.tr.writeChrome(filepath.Join(b.cfg.out, stem+".spans.json"))
	}
	return nil
}
