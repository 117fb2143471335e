// Command servebench is the repository's end-to-end benchmark: it starts
// cmd/pvserve as its own process on loopback, drives one named workload
// from a closed loop of clients, checks every reply against answers the
// library computed at set-up, and prints each metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also replays the same request bodies in-process through each layer's
// public calls and reports per-layer metrics instead. -repeat N runs the
// workload N times on consecutive seeds and prints each metric's median,
// quartiles and spread. See README.md for workloads and metric
// definitions; run.sh builds pvserve and this command from the checkout.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	pvserve  string
	workdir  string
}

// metric is one named, unit-carrying value.
type metric struct {
	name, unit string
	value      float64
}

// outcome is one run's result line.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) MarshalJSON() ([]byte, error) {
	m := make(map[string]jsonMetric, len(o.metrics))
	for _, x := range o.metrics {
		m[x.name] = jsonMetric{Value: x.value, Unit: x.unit}
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, m})
}

func main() {
	var cfg config
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced per-layer replay and reports per-layer metrics")
	flag.StringVar(&cfg.pvserve, "pvserve", "", "pvserve binary to benchmark")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "scratch directory for server state, logs and spans")
	flag.IntVar(&repeat, "repeat", 0, "steadiness report: run the workload this many times on seeds seed, seed+1, ...")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.pvserve == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -pvserve is required, -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := steadiness(cfg, repeat, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run, printing diagnostics to out.
func run(cfg config, out io.Writer) (*outcome, error) {
	printEnv(out)
	t0 := time.Now()
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "inputs: workload=%s seed=%d requests=%d docs=%d built in %.2fs\n",
		w.name, cfg.seed, len(w.reqs), w.docs(), time.Since(t0).Seconds())
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, "run", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	srv, setupTimes, err := setUp(cfg.pvserve, dir, w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m, err := drive(srv, w, cfg.seconds)
	var hwm float64
	if err == nil {
		hwm, err = procMemMB(srv.pid(), "VmHWM")
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	r := summarize(m)
	o := &outcome{
		correct:   r.failed == 0 && m.otherFailures == 0 && r.attempted > 0,
		attempted: r.attempted,
		failed:    r.failed,
	}
	setup := median(append([]float64(nil), setupTimes...))
	printRun(out, cfg, w, m, &r, setupTimes, hwm)
	if !cfg.trace {
		o.metrics = []metric{
			{"docs_per_s", "docs/s", r.docsPerS},
			{"cpu_us_per_doc", "us", r.cpuUSPerDoc},
			{"req_ms_p50", "ms", r.p50},
			{"req_ms_p99", "ms", r.p99},
			{"setup_s", "s", setup},
			{"rss_mb", "MB", r.rssMB},
		}
		return o, nil
	}
	spans := filepath.Join(cfg.workdir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
	rep, err := traceReplay(w, dir, spans)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	printLayers(out, rep)
	o.metrics = layerMetrics(m, &r, rep)
	return o, nil
}

// layerMetrics derives the per-layer metrics from the traced replay (R),
// the /stats deltas over the measured phase (S) and the client's own
// counts (C). A layer the workload's route never calls reads 0.
func layerMetrics(m *measurement, r *e2e, rep *layerReport) []metric {
	n := float64(rep.docs)
	perDoc := func(name string) float64 { return rep.self[name] / n }
	perCall := func(name string) float64 { return ratio(rep.self[name], float64(rep.calls[name])) }
	perByte := func(span, bytes string) float64 { return ratio(rep.self[span]*1e3, float64(rep.counts[bytes])) }
	c := rep.counts
	b, a := m.before, m.after
	hits, misses := float64(a.Registry.Hits-b.Registry.Hits), float64(a.Registry.Misses-b.Registry.Misses)
	fast, fb := float64(a.Engine.FastPathHits-b.Engine.FastPathHits), float64(a.Engine.FastPathFallbacks-b.Engine.FastPathFallbacks)
	return []metric{
		{"engine.decode_us_per_doc", "us", perDoc("engine.decode")},
		{"engine.encode_us_per_doc", "us", perDoc("engine.encode")},
		{"engine.replay_us_per_doc", "us", rep.cpuUS},
		{"engine.unattributed_us_per_doc", "us", r.cpuUSPerDoc - rep.cpuUS},
		{"engine.requests_failed", "count", float64(r.failed + m.otherFailures)},
		{"trace.overhead_frac", "ratio", rep.overhead},
		{"registry.resolve_us_per_req", "us", perCall("registry.resolve")},
		{"registry.hit_ratio", "ratio", ratio(hits, hits+misses)},
		{"registry.compiles", "count", float64(a.Registry.Compiles - b.Registry.Compiles)},
		{"schemastore.disk_loads", "count", float64(a.Registry.DiskLoads)},
		{"xmltext.lex_ns_per_byte", "ns/B", perByte(probePrefix+"xmltext.lex", "probe.bytes")},
		{"xmltext.chunked_lex_ns_per_byte", "ns/B", perByte(probePrefix+"xmltext.chunked_lex", "probe.bytes")},
		{"core.check_us_per_doc", "us", perDoc("core.check")},
		{"core.fastpath_hit_ratio", "ratio", ratio(fast, fast+fb)},
		{"core.fallbacks_per_doc", "1/doc", ratio(fb, float64(a.Engine.Docs-b.Engine.Docs))},
		{"core.strict_frac", "ratio", ratio(float64(c["core.strict"]), float64(c["core.docs"]))},
		{"dom.tree_pass_frac", "ratio", ratio(float64(c["dom.tree_passes"]), float64(c["core.docs"]))},
		{"core.reader_ns_per_byte", "ns/B", perByte(probePrefix+"core.reader", "probe.bytes")},
		{"dom.parse_us_per_doc", "us", perDoc("dom.parse")},
		{"validator.validate_us_per_doc", "us", perDoc("validator.validate")},
		{"complete.dp_us_per_doc", "us", perDoc("complete.dp")},
		{"dom.serialize_us_per_doc", "us", perDoc("dom.serialize")},
		{"diff.compute_us_per_doc", "us", perDoc("diff.compute")},
		{"complete.inserted_per_doc", "count", ratio(float64(c["complete.inserted"]), float64(c["complete.docs"]))},
		{"jobs.queue_wait_ms_p50", "ms", r.queueWait},
		{"jobs.run_ms_p50", "ms", r.run},
		{"jobs.fetch_ms_p50", "ms", r.fetch},
		{"jobs.polls_per_job", "count", r.pollsPerJob},
		{"walstore.append_us", "us", perCall("walstore.append")},
		{"receipt.anchor_append_us", "us", perCall("receipt.anchor_append")},
		{"receipt.build_us_per_doc", "us", perDoc("receipt.build")},
	}
}

// ratio is a/b, or 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printRun writes the run's diagnostics: steal, the uncorrected values,
// attempted and failed requests, MB/s and the set-up samples.
func printRun(out io.Writer, cfg config, w *workload, m *measurement, r *e2e, setup []float64, hwm float64) {
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%d clients=%d requests_attempted=%d requests_failed=%d failed_outside_measured_phase=%d docs=%d\n",
		w.name, cfg.seed, cfg.seconds, clients, r.attempted, r.failed, m.otherFailures, r.docs)
	for _, err := range m.errs {
		fmt.Fprintf(out, "run: failure: %v\n", err)
	}
	fmt.Fprintf(out, "run: steal_frac=%.4f per-window=%s\n", r.steal, fmtList(r.windowSteal, "%.3f"))
	docs := make([]float64, len(r.windowDocs))
	for i, n := range r.windowDocs {
		docs[i] = float64(n)
	}
	fmt.Fprintf(out, "run: per-window docs=%s\n", fmtList(docs, "%.0f"))
	fmt.Fprintf(out, "run: per-window cpu_us_per_doc (uncorrected)=%s\n", fmtList(r.windowCPU, "%.0f"))
	kept := make([]float64, len(r.kept))
	for i, k := range r.kept {
		if k {
			kept[i] = 1
		}
	}
	fmt.Fprintf(out, "run: windows kept (quieter half)=%s\n", fmtList(kept, "%.0f"))
	fmt.Fprintf(out, "run: corrected docs_per_s=%.2f cpu_us_per_doc=%.3f req_ms_p50=%.3f req_ms_p99=%.3f (p99 over %d samples, %d beyond)\n",
		r.docsPerS, r.cpuUSPerDoc, r.p50, r.p99, r.samples, r.p99Beyond)
	fmt.Fprintf(out, "run: uncorrected, all windows: docs_per_s=%.2f cpu_us_per_doc=%.3f req_ms_p50=%.3f req_ms_p99=%.3f\n",
		r.rawDocsPS, r.rawCPU, r.rawP50, r.rawP99)
	fmt.Fprintf(out, "run: mb_per_s=%.2f rss_mb=%.2f (median VmRSS) %.2f (VmHWM)\n", r.mbPerS, r.rssMB, hwm)
	fmt.Fprintf(out, "run: setup_s samples=%s\n", fmtList(setup, "%.4f"))
	if r.pollsPerJob > 0 {
		fmt.Fprintf(out, "run: jobs queue_wait_ms_p50=%.3f run_ms_p50=%.3f fetch_ms_p50=%.3f polls_per_job=%.2f\n",
			r.queueWait, r.run, r.fetch, r.pollsPerJob)
	}
}

func fmtList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printEnv writes the environment header: source revision, Go version,
// GOMAXPROCS, CPU count and CPU model.
func printEnv(out io.Writer) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(out, "env: commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		revision(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), model)
}

// revision names the source being measured: the git commit when the
// checkout is a repository, else a digest of every Go source and module
// file under the working directory.
func revision() string {
	if rev, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(rev))
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// steadiness runs the workload n times on consecutive seeds and prints
// each metric's median, quartiles and spread: the evidence behind the
// bounds in BENCHMARK.json.
func steadiness(cfg config, n int, out io.Writer) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	failed := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		var diag bytes.Buffer
		o, err := run(c, &diag)
		if err != nil {
			return fmt.Errorf("seed %d: %w", c.seed, err)
		}
		failed += o.failed
		line, err := json.Marshal(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "seed %d: %s\n", c.seed, line)
		for _, m := range o.metrics {
			if _, ok := values[m.name]; !ok {
				order = append(order, m.name)
				units[m.name] = m.unit
			}
			values[m.name] = append(values[m.name], m.value)
		}
	}
	fmt.Fprintf(out, "steadiness: workload=%s runs=%d seeds=%d..%d failed=%d\n", cfg.workload, n, cfg.seed, cfg.seed+int64(n)-1, failed)
	fmt.Fprintf(out, "%-34s %-7s %12s %12s %12s %9s %12s %12s %9s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "min", "max", "range/med")
	for _, name := range order {
		v := values[name]
		q, err := quartiles(append([]float64(nil), v...))
		if err != nil {
			return err
		}
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(out, "%-34s %-7s %12.4f %12.4f %12.4f %8.2f%% %12.4f %12.4f %8.2f%%\n",
			name, units[name], q[1], q[0], q[2], 100*ratio(q[2]-q[0], q[1]), lo, hi, 100*ratio(hi-lo, q[1]))
	}
	return nil
}
