// Command perfbench is the repository's end-to-end serving benchmark.  It
// runs the real serving stack in-process — acqserver daemons, and for one
// workload a gateway in front of two of them, on loopback listeners —
// drives it with frames generated from the instrument model, checks every
// answer against a reference decode, and prints the end-to-end metrics
// (or, with --trace 1, per-layer metrics) as the last line of standard
// output:
//
//	perfbench --workload cpu-wide-paced --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in turn.  Build and run it from the
// repository root with perfbench/run.sh, which keeps all build output
// inside the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/acqserver"
	"repro/internal/telemetry/trace"
)

// metricDef describes one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the serving stack sees.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"on_time_frac", "ratio"},
	{"ok_frac", "ratio"},
	{"cpu_ms_per_frame", "ms"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures of single layers.
var perLayer = []metricDef{
	{"frameio.decode_ms", "ms"},
	{"frameio.encode_ms", "ms"},
	{"frameio.wire_bytes", "bytes"},
	{"hadamard.ns_per_column", "ns"},
	{"hadamard.bytes_per_column", "bytes"},
	{"pipeline.frame_ms", "ms"},
	{"pipeline.batch_ns_per_column", "ns"},
	{"fpga.ns_per_column", "ns"},
	{"fpga.saturations_per_frame", "count"},
	{"hybrid.host_ms", "ms"},
	{"xd1.modeled_ms", "ms"},
	{"hybrid.host_per_modeled", "ratio"},
	{"peaks.detect_us", "us"},
	{"peaks.found", "count"},
	{"acqserver.queue_wait_p50_ms", "ms"},
	{"acqserver.queue_wait_p99_ms", "ms"},
	{"acqserver.process_p50_ms", "ms"},
	{"acqserver.unattributed_p50_ms", "ms"},
	{"acqserver.shed_frac", "ratio"},
	{"acqserver.coalesce_fill_mean", "frames"},
	{"acqserver.coalesce_wait_p50_ms", "ms"},
	{"gateway.hop_p50_ms", "ms"},
	{"gateway.retries", "count"},
	{"gateway.backend_share_max", "ratio"},
	{"framelog.append_us", "us"},
	{"framelog.records_per_fsync", "count"},
	{"framelog.bytes_per_frame", "bytes"},
	{"telemetry.tax_p50_ms", "ms"},
	{"telemetry.tsdb_sample_us", "us"},
	{"runtime.alloc_kb_per_frame", "KiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.samples", "count"},
	{"traced.frames_per_s", "frames/s"},
	{"traced.latency_p50_ms", "ms"},
	{"traced.latency_p99_ms", "ms"},
	{"traced.cpu_ms_per_frame", "ms"},
}

// maxSpans caps the spans of one traced run, far above what a run
// records (one per request and per standalone layer call).
const maxSpans = 1 << 22

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same frames")
	seconds := flag.Int("seconds", 30, "length of the measured window, seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := flag.String("outdir", filepath.Join(".bench_build", "perfbench"), "directory for spans, scratch logs and the last untraced result")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := runWorkload(w, *seed, *seconds, *traceFlag == 1, *outDir)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		if len(selected) == 1 {
			all = res
			break
		}
		printJSON(res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	printJSON(all)
	if !all.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// run is one workload's state once set up.
type run struct {
	fs  *frameSet
	st  *stack
	cls []*acqserver.Client
}

func (r *run) close() error {
	closeAll(r.cls)
	return r.st.close()
}

// setUp generates the frames, encodes them, computes the reference
// answers, starts the stack, dials the load connections and warms up.
func setUp(w workload, seed int64, dir string, sp trace.Span) (*run, *recorder, error) {
	defer sp.End()
	frames, err := generateFrames(w, seed)
	if err != nil {
		return nil, nil, err
	}
	st, err := startStack(w, dir)
	if err != nil {
		return nil, nil, err
	}
	fs, err := buildFrameSet(w, frames, st.cfg)
	if err != nil {
		return nil, nil, errors.Join(err, st.close())
	}
	cls, err := dialAll(st.target, connections)
	if err != nil {
		return nil, nil, errors.Join(err, st.close())
	}
	r := &run{fs: fs, st: st, cls: cls}
	return r, warmUp(cls, fs), nil
}

func runWorkload(w workload, seed int64, seconds int, traced bool, outDir string) (result, error) {
	env := stamp(w, seed, seconds, traced)
	printJSON(map[string]envStamp{"env": env})
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	// The traced run records one trace per run: its root span covers the
	// set-ups, the window and the layer timings, one span per call.
	var tr *trace.Tracer
	if traced {
		tr = trace.New(trace.Config{MaxSpans: maxSpans})
	}
	root := tr.StartTrace("run."+w.name, 0)

	var r *run
	var setups []time.Duration
	correct := true
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
		}
		t := time.Now()
		var warm *recorder
		r, warm, err = setUp(w, seed, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), root.Child("setup"))
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t))
		for _, s := range warm.samples {
			correct = correct && !s.wrong
		}
		if warm.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up:", warm.firstErr)
		}
	}
	defer func() {
		if err := r.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()
	runtime.GC()

	cycle := cycleDuration()
	wsp := root.Child("window")
	win := runWindow(w, r.cls, r.fs, cycle, time.Duration(seconds)*time.Second, wsp)
	wsp.End()
	ws := win.stats(cycle)
	if win.rec.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: window:", win.rec.firstErr)
	}
	correct = correct && ws.wrong == 0
	e2e := map[string]float64{
		"frames_per_s":     ws.framesPerS,
		"latency_p50_ms":   ms(ws.p50),
		"latency_p99_ms":   ms(ws.p99),
		"on_time_frac":     float64(ws.onTime) / float64(max(ws.attempted, 1)),
		"ok_frac":          float64(ws.ok) / float64(max(ws.attempted, 1)),
		"cpu_ms_per_frame": ms(ws.cpuPerFrame),
		"rss_peak_mb":      float64(win.rssPeak) / (1 << 20),
		"setup_s":          median(setups).Seconds(),
	}
	printSummary(w, ws, e2e)
	res := result{Correct: correct, Attempted: ws.attempted, Failed: ws.failed, Metrics: map[string]metricValue{}}
	last := filepath.Join(outDir, "last-"+w.name+".json")
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		if b, err := json.Marshal(e2e); err == nil {
			_ = os.WriteFile(last, b, 0o644) // only feeds the traced run's overhead report
		}
		return res, nil
	}

	lr := &layerRun{w: w, fs: r.fs, cfg: r.st.cfg, dir: dir, root: root, out: map[string]float64{}}
	if err := measureLayers(lr); err != nil {
		return result{}, err
	}
	if err := measureStack(lr, r.st, win, ws); err != nil {
		return result{}, err
	}
	for _, k := range []string{"frames_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_frame"} {
		lr.out["traced."+k] = e2e[k]
	}
	root.End()
	printStageTable(w, win, lr.out, last, e2e)
	for _, m := range perLayer {
		v, ok := lr.out[m.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	n, err := writeTrace(tr, env, base)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s-spans.json (Perfetto), environment to %s-env.json\n", n, base, base)
	return res, nil
}

// printSummary prints the window's figures: every end-to-end metric, the
// failure share (which ok_frac bounds) and the p99 latency, which has no
// regression bound.
// Latency percentiles are over the OK answers.
func printSummary(w workload, ws windowStats, e2e map[string]float64) {
	fmt.Printf("%s: %d attempted, %d ok, %d failed (%d wrong answers); latencies over %d samples\n",
		w.name, ws.attempted, ws.ok, ws.failed, ws.wrong, ws.ok)
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %12.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Printf("  %-18s %12.6f ratio (1 - ok_frac)\n", "failed_frac", float64(ws.failed)/float64(max(ws.attempted, 1)))
	fmt.Printf("  %-18s %12.4f ms (not bounded: too noisy across runs)\n", "latency_p99_ms", e2e["latency_p99_ms"])
}

// writeTrace writes the run's spans as Perfetto trace-event JSON to
// base-spans.json and its environment stamp to base-env.json, and returns
// the number of spans written.
func writeTrace(tr *trace.Tracer, env envStamp, base string) (int, error) {
	slow, _ := tr.Snapshot()
	var n int
	for _, t := range slow {
		n += len(t.Spans)
		if t.DroppedSpans > 0 {
			return 0, fmt.Errorf("trace %s dropped %d spans", t.Name, t.DroppedSpans)
		}
	}
	b, err := json.Marshal(env)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(base+"-env.json", b, 0o644); err != nil {
		return 0, err
	}
	f, err := os.Create(base + "-spans.json")
	if err != nil {
		return 0, err
	}
	if err := trace.WritePerfetto(f, slow); err != nil {
		_ = f.Close()
		return 0, err
	}
	return n, f.Close()
}
