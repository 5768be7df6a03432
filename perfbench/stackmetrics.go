package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/acqserver"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// tailRounds is how many times the serial gateway-hop and telemetry-tax
// probes send every frame to each side.
const tailRounds = 8

// measureStack derives the serving layers' metrics from the traced
// window's answers and the stack's registries, and runs the gateway-hop
// and telemetry-tax probes on the cluster workload.
func measureStack(lr *layerRun, st *stack, win window, ws windowStats) error {
	out := lr.out
	var qwait, process, unattributed, lag []time.Duration
	byBackend := map[uint16]int{}
	var retries int
	for _, s := range win.rec.samples {
		lag = append(lag, s.lag)
		if !s.ok {
			continue
		}
		q := time.Duration(s.res.QueueWaitNs)
		p := time.Duration(s.res.ProcessNs)
		qwait = append(qwait, q)
		process = append(process, p)
		unattributed = append(unattributed, s.latency-q-p)
		byBackend[s.res.Backend]++
		if s.res.Attempts > 1 {
			retries += int(s.res.Attempts) - 1
		}
	}
	out["acqserver.queue_wait_p50_ms"] = ms(quantile(qwait, 0.5))
	out["acqserver.queue_wait_p99_ms"] = ms(quantile(qwait, 0.99))
	out["acqserver.process_p50_ms"] = ms(quantile(process, 0.5))
	out["acqserver.unattributed_p50_ms"] = ms(quantile(unattributed, 0.5))

	var shed, accepted int64
	for _, reason := range []string{"queue_full", "draining", "degraded"} {
		shed += st.counter("acq_shed_total", telemetry.L("reason", reason))
	}
	for _, p := range []acqserver.Path{acqserver.PathHybrid, acqserver.PathCPU} {
		accepted += st.counter("acq_frames_total", telemetry.L("path", p.String()))
	}
	out["acqserver.shed_frac"] = ratio(shed, shed+accepted)
	n, sum, _ := st.histogram("acq_coalesce_batch_fill")
	out["acqserver.coalesce_fill_mean"] = sum / float64(max(n, 1))
	_, _, waits := st.histogram("acq_coalesce_wait_ns")
	out["acqserver.coalesce_wait_p50_ms"] = telemetry.QuantileOfCounts(waits, 0.5) / 1e6

	var most int
	for _, n := range byBackend {
		most = max(most, n)
	}
	out["gateway.retries"] = float64(retries)
	out["gateway.backend_share_max"] = float64(most) / float64(max(ws.ok, 1))

	if lr.w.cluster {
		records := st.counter("framelog_append_records_total")
		out["framelog.records_per_fsync"] = ratio(records, st.counter("framelog_fsync_total"))
		out["framelog.bytes_per_frame"] = ratio(st.counter("framelog_append_bytes_total"), records)
		n, sum, _ = st.histogram("tsdb_sample_ns")
		out["telemetry.tsdb_sample_us"] = sum / float64(max(n, 1)) / 1e3
		if err := measureHop(lr, st); err != nil {
			return err
		}
		if err := measureTax(lr); err != nil {
			return err
		}
	} else {
		out["framelog.records_per_fsync"] = 0
		out["framelog.bytes_per_frame"] = 0
		out["telemetry.tsdb_sample_us"] = 0
		out["gateway.hop_p50_ms"] = 0
		out["telemetry.tax_p50_ms"] = 0
	}

	out["runtime.alloc_kb_per_frame"] = float64(win.mem1.allocBytes-win.mem0.allocBytes) / 1024 / float64(max(ws.ok, 1))
	out["runtime.gc_cpu_frac"] = (win.mem1.gcCPU - win.mem0.gcCPU) / win.cpu.Seconds()
	out["loadgen.lag_p99_ms"] = ms(quantile(lag, 0.99))
	out["loadgen.samples"] = float64(ws.attempted)
	return nil
}

// measureHop sends the frames one at a time through the gateway and
// straight to the backend the gateway routes that connection to; the
// difference of the median latencies is the gateway hop.
func measureHop(lr *layerRun, st *stack) error {
	sp := lr.root.Child("layer.gateway")
	defer sp.End()
	via, err := acqserver.Dial(st.target, 5*time.Second)
	if err != nil {
		return err
	}
	defer via.Close()
	probe := &recorder{}
	do(via, lr.fs, 0, time.Now(), 0, probe, sp)
	if probe.firstErr != nil {
		return probe.firstErr
	}
	b := int(probe.samples[0].res.Backend)
	if b < 1 || b > len(st.nodes) {
		return fmt.Errorf("gateway answered with backend %d", b)
	}
	direct, err := acqserver.Dial(st.nodes[b-1].addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer direct.Close()
	gw, be, err := serialLatencies(via, direct, lr.fs, tailRounds, sp)
	if err != nil {
		return err
	}
	lr.out["gateway.hop_p50_ms"] = ms(gw - be)
	return nil
}

// measureTax starts two fresh backends configured like the cluster's, one
// with the telemetry plane (registry, tracer, flight recorder, tsdb
// sampler) and one without, and sends the frames one at a time to each;
// the difference of the median latencies is the plane's tax.
func measureTax(lr *layerRun) error {
	sp := lr.root.Child("layer.telemetry")
	defer sp.End()
	var nodes []*node
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
		defer cancel()
		for _, n := range nodes {
			_ = n.stop(ctx)
		}
	}()
	var cls []*acqserver.Client
	defer func() { closeAll(cls) }()
	for _, plane := range []bool{true, false} {
		dir := filepath.Join(lr.dir, fmt.Sprintf("tax-plane-%t", plane))
		cfg, err := clusterConfig(dir, plane)
		if err != nil {
			return err
		}
		history := ""
		if plane {
			history = filepath.Join(dir, "history")
		}
		n, err := startNode(cfg, "127.0.0.1:0", history)
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		cl, err := acqserver.Dial(n.addr, 5*time.Second)
		if err != nil {
			return err
		}
		cls = append(cls, cl)
	}
	warm := &recorder{}
	for _, cl := range cls {
		for i := range lr.fs.payloads {
			do(cl, lr.fs, i, time.Now(), 0, warm, trace.Span{})
		}
	}
	if warm.firstErr != nil {
		return warm.firstErr
	}
	on, off, err := serialLatencies(cls[0], cls[1], lr.fs, tailRounds, sp)
	if err != nil {
		return err
	}
	lr.out["telemetry.tax_p50_ms"] = ms(on - off)
	return nil
}

// printStageTable splits the traced window's client latency into queue
// wait, process and the unattributed rest (means add up exactly; medians
// need not), lists the standalone layer timings, and reports the tracing
// overhead against the last untraced run of the workload, when one exists.
func printStageTable(w workload, win window, layers map[string]float64, lastPath string, traced map[string]float64) {
	var n int
	var lat, q, p float64
	for _, s := range win.rec.samples {
		if !s.ok {
			continue
		}
		n++
		lat += ms(s.latency)
		q += ms(time.Duration(s.res.QueueWaitNs))
		p += ms(time.Duration(s.res.ProcessNs))
	}
	d := float64(max(n, 1))
	fmt.Printf("stage table: %s, traced window, %d OK answers\n", w.name, n)
	fmt.Printf("  %-28s %10s %10s\n", "stage", "mean ms", "p50 ms")
	fmt.Printf("  %-28s %10.4f %10.4f\n", "client latency", lat/d, traced["latency_p50_ms"])
	fmt.Printf("  %-28s %10.4f %10.4f\n", "= queue wait", q/d, layers["acqserver.queue_wait_p50_ms"])
	fmt.Printf("  %-28s %10.4f %10.4f\n", "+ process", p/d, layers["acqserver.process_p50_ms"])
	fmt.Printf("  %-28s %10.4f %10.4f\n", "+ unattributed", (lat-q-p)/d, layers["acqserver.unattributed_p50_ms"])
	fmt.Println("  layer metrics (standalone timings: fastest call):")
	for _, m := range perLayer {
		note := ""
		if !w.cluster {
			switch m.name {
			case "gateway.hop_p50_ms", "telemetry.tax_p50_ms", "telemetry.tsdb_sample_us",
				"framelog.records_per_fsync", "framelog.bytes_per_frame",
				"acqserver.coalesce_fill_mean", "acqserver.coalesce_wait_p50_ms":
				note = "  (not in this workload's stack)"
			}
		}
		fmt.Printf("    %-32s %14.4f %s%s\n", m.name, layers[m.name], m.unit, note)
	}
	b, err := os.ReadFile(lastPath)
	if err != nil {
		fmt.Println("  tracing overhead: no untraced run of this workload to compare with")
		return
	}
	var untraced map[string]float64
	if err := json.Unmarshal(b, &untraced); err != nil {
		fmt.Println("  tracing overhead: unreadable untraced result:", err)
		return
	}
	fmt.Println("  tracing overhead (traced minus last untraced run):")
	for _, k := range []string{"frames_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_frame"} {
		fmt.Printf("    %-20s %+12.4f\n", k, traced[k]-untraced[k])
	}
}
