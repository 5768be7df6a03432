package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"path/filepath"
	"time"

	"repro/internal/acqserver"
	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
	"repro/internal/pipeline"
	"repro/internal/telemetry/trace"
)

// layerBudget is roughly how long each standalone layer timing runs;
// every timing makes at least minCalls and at most maxCalls calls.
const (
	layerBudget = 250 * time.Millisecond
	minCalls    = 16
	maxCalls    = 4096
)

// timeCalls calls fn(i) for i cycling over items, one span per call under
// parent, until the layer budget or limit calls are spent, and returns
// each call's duration.
func timeCalls(parent trace.Span, name string, items, limit int, fn func(i int) error) ([]time.Duration, error) {
	var durs []time.Duration
	start := time.Now()
	for k := 0; k < limit && (k < minCalls || time.Since(start) < layerBudget); k++ {
		sp := parent.Child(name)
		t := time.Now()
		err := fn(k % items)
		durs = append(durs, time.Since(t))
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return durs, nil
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

// fastest is the shortest of durs.  Standalone layer timings report it:
// on a machine shared with other work, the fastest of many calls repeats
// from run to run far better than their median, which moves with how busy
// the machine was during the layer's timing.
func fastest(durs []time.Duration) time.Duration {
	best := durs[0]
	for _, d := range durs[1:] {
		best = min(best, d)
	}
	return best
}

// layerRun is what the standalone layer timings work on.
type layerRun struct {
	w    workload
	fs   *frameSet
	cfg  acqserver.Config
	dir  string
	root trace.Span
	out  map[string]float64
}

// measureLayers times the benchmark's own calls into each layer's public
// functions on the workload's frames.
func measureLayers(lr *layerRun) error {
	for _, step := range []func(*layerRun) error{
		measureFrameio, measureHadamard, measurePipeline, measureFPGA,
		measureHybrid, measurePeaks, measureFramelog,
	} {
		if err := step(lr); err != nil {
			return err
		}
	}
	return nil
}

func measureFrameio(lr *layerRun) error {
	sp := lr.root.Child("layer.frameio")
	defer sp.End()
	lim := serverLimits(lr.cfg)
	dec, err := timeCalls(sp, "frameio.ReadLimited", len(lr.fs.payloads), maxCalls, func(i int) error {
		_, _, err := frameio.ReadLimited(bytes.NewReader(lr.fs.payloads[i][optsPrefix:]), lim)
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc, err := timeCalls(sp, "frameio.Write", len(lr.fs.frames), maxCalls, func(i int) error {
		buf.Reset()
		return frameio.Write(&buf, lr.fs.frames[i], nil, frameio.Delta)
	})
	if err != nil {
		return err
	}
	var wire int
	for _, p := range lr.fs.payloads {
		wire += len(p) - optsPrefix
	}
	lr.out["frameio.decode_ms"] = ms(fastest(dec))
	lr.out["frameio.encode_ms"] = ms(fastest(enc))
	lr.out["frameio.wire_bytes"] = float64(wire) / float64(len(lr.fs.payloads))
	return nil
}

// tiles cuts every frame into TileLanes-wide column blocks.
func tiles(frames []*instrument.Frame) []*hadamard.ColumnBlock {
	var out []*hadamard.ColumnBlock
	for _, f := range frames {
		for t0 := 0; t0 < f.TOFBins; t0 += hybrid.TileLanes {
			lanes := min(hybrid.TileLanes, f.TOFBins-t0)
			b := hadamard.NewColumnBlock(f.DriftBins, lanes)
			f.GatherColumns(t0, lanes, b.Data)
			out = append(out, b)
		}
	}
	return out
}

// perColumn is the fastest call's time per column.
func perColumn(durs []time.Duration, lanes func(i int) int) float64 {
	ns := make([]time.Duration, len(durs))
	for k, d := range durs {
		ns[k] = d / time.Duration(lanes(k))
	}
	return float64(fastest(ns))
}

func measureHadamard(lr *layerRun) error {
	sp := lr.root.Child("layer.hadamard")
	defer sp.End()
	dec, err := hadamard.NewFHTDecoder(lr.cfg.Order)
	if err != nil {
		return err
	}
	src := tiles(lr.fs.frames)
	dst := hadamard.NewColumnBlock(dec.Len(), hybrid.TileLanes)
	durs, err := timeCalls(sp, "hadamard.FHTDecoder.DecodeBatch", len(src), maxCalls, func(i int) error {
		dst.Reset(dec.Len(), src[i].Lanes)
		return dec.DecodeBatch(dst, src[i])
	})
	if err != nil {
		return err
	}
	lr.out["hadamard.ns_per_column"] = perColumn(durs, func(k int) int { return src[k%len(src)].Lanes })
	lr.out["hadamard.bytes_per_column"] = fhtBytesPerColumn(dec.Len())
	return nil
}

// fhtBytesPerColumn is the memory traffic of one column through the
// production FWHT decode, computed from its structure: read the column,
// scatter it into the 2^n-row work buffer, run the butterfly levels three
// at a time (radix 8), each pass reading and writing the work buffer, then
// gather into the output column.  8-byte words.
func fhtBytesPerColumn(n int) float64 {
	m := n + 1
	levels := bits.Len(uint(n))
	passes := (levels + 2) / 3
	words := n + m + 2*m*passes + m + n
	return float64(8 * words)
}

func measurePipeline(lr *layerRun) error {
	sp := lr.root.Child("layer.pipeline")
	defer sp.End()
	order := lr.cfg.Order
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	ctx := context.Background()
	frames := lr.fs.frames
	dsts := make([]*instrument.Frame, len(frames))
	for i, f := range frames {
		dsts[i] = instrument.NewFrame(f.DriftBins, f.TOFBins)
	}
	one, err := timeCalls(sp, "pipeline.DeconvolveFramesIntoContext", len(frames), maxCalls, func(i int) error {
		return pipeline.DeconvolveFramesIntoContext(ctx, []pipeline.FramePair{{Dst: dsts[i], Src: frames[i]}},
			factory, lr.cfg.CPUWorkersPerFrame, nil)
	})
	if err != nil {
		return err
	}
	if lr.w.path == acqserver.PathCPU {
		for i, d := range dsts {
			if err := checkDecode(d, lr.fs.refs[i], lr.cfg); err != nil {
				return fmt.Errorf("pipeline decode of frame %d: %w", i, err)
			}
		}
	}
	const batch = 8
	var cols int
	pairs := make([]pipeline.FramePair, batch)
	for b := range pairs {
		i := b % len(frames)
		pairs[b] = pipeline.FramePair{Dst: instrument.NewFrame(frames[i].DriftBins, frames[i].TOFBins), Src: frames[i]}
		cols += frames[i].TOFBins
	}
	many, err := timeCalls(sp, "pipeline.DeconvolveFramesIntoContext.batch8", 1, maxCalls, func(int) error {
		return pipeline.DeconvolveFramesIntoContext(ctx, pairs, factory, lr.cfg.CPUWorkersPerFrame, nil)
	})
	if err != nil {
		return err
	}
	lr.out["pipeline.frame_ms"] = ms(fastest(one))
	lr.out["pipeline.batch_ns_per_column"] = float64(fastest(many)) / float64(cols)
	return nil
}

// checkDecode compares a decoded frame's peak summary with the reference.
func checkDecode(f *instrument.Frame, ref reference, cfg acqserver.Config) error {
	got, err := summarize(f, cfg)
	if err != nil {
		return err
	}
	return samePeaks(got, ref.peaks)
}

func measureFPGA(lr *layerRun) error {
	sp := lr.root.Child("layer.fpga")
	defer sp.End()
	oc := offloadConfig(lr.cfg)
	core, err := fpga.NewFHTCore(oc.Order, oc.Format, oc.Growth, oc.ButterflyUnits, oc.MemPorts)
	if err != nil {
		return err
	}
	src := tiles(lr.fs.frames)
	dst := hadamard.NewColumnBlock(core.Len(), hybrid.TileLanes)
	// One pass over every tile counts saturations exactly.
	for _, b := range src {
		dst.Reset(core.Len(), b.Lanes)
		if _, err := core.DeconvolveBatch(dst, b); err != nil {
			return err
		}
	}
	lr.out["fpga.saturations_per_frame"] = float64(core.Saturations()) / float64(len(lr.fs.frames))
	durs, err := timeCalls(sp, "fpga.FHTCore.DeconvolveBatch", len(src), maxCalls, func(i int) error {
		dst.Reset(core.Len(), src[i].Lanes)
		_, err := core.DeconvolveBatch(dst, src[i])
		return err
	})
	if err != nil {
		return err
	}
	lr.out["fpga.ns_per_column"] = perColumn(durs, func(k int) int { return src[k%len(src)].Lanes })
	return nil
}

func measureHybrid(lr *layerRun) error {
	sp := lr.root.Child("layer.hybrid")
	defer sp.End()
	off, err := hybrid.NewOffloader(offloadConfig(lr.cfg))
	if err != nil {
		return err
	}
	frames := lr.fs.frames
	dst := make([]*instrument.Frame, len(frames))
	modeled := make([]float64, len(frames))
	for i, f := range frames {
		dst[i] = instrument.NewFrame(f.DriftBins, f.TOFBins)
	}
	ctx := context.Background()
	durs, err := timeCalls(sp, "hybrid.Offloader.DeconvolveFrameInto", len(frames), maxCalls, func(i int) error {
		res, err := off.DeconvolveFrameInto(ctx, dst[i], frames[i])
		if err == nil {
			modeled[i] = res.SimulatedTimeS
		}
		return err
	})
	if err != nil {
		return err
	}
	if lr.w.path == acqserver.PathHybrid {
		for i, d := range dst {
			if err := checkDecode(d, lr.fs.refs[i], lr.cfg); err != nil {
				return fmt.Errorf("hybrid decode of frame %d: %w", i, err)
			}
		}
	}
	var sum float64
	for _, m := range modeled {
		sum += m
	}
	host := ms(fastest(durs))
	mod := sum / float64(len(modeled)) * 1e3
	lr.out["hybrid.host_ms"] = host
	lr.out["xd1.modeled_ms"] = mod
	lr.out["hybrid.host_per_modeled"] = host / mod
	return nil
}

func measurePeaks(lr *layerRun) error {
	sp := lr.root.Child("layer.peaks")
	defer sp.End()
	profiles := make([][]float64, len(lr.fs.refs))
	var found int
	for i, r := range lr.fs.refs {
		profiles[i] = r.decoded.DriftProfile()
		p, err := peaks.Detect(profiles[i], lr.cfg.MinSNR)
		if err != nil {
			return err
		}
		found += len(p)
	}
	durs, err := timeCalls(sp, "peaks.Detect", len(profiles), maxCalls, func(i int) error {
		_, err := peaks.Detect(profiles[i], lr.cfg.MinSNR)
		return err
	})
	if err != nil {
		return err
	}
	lr.out["peaks.detect_us"] = float64(fastest(durs)) / float64(time.Microsecond)
	lr.out["peaks.found"] = float64(found) / float64(len(profiles))
	return nil
}

// maxLogBytes roughly caps what the standalone frame-log timing appends.
const maxLogBytes = 16 << 20

// measureFramelog appends the workload's payloads to a benchmark-owned
// frame log with the cluster backends' fsync policy.
func measureFramelog(lr *layerRun) error {
	sp := lr.root.Child("layer.framelog")
	defer sp.End()
	cfg := framelog.DefaultConfig(filepath.Join(lr.dir, "bench-framelog"))
	cfg.Fsync = framelog.FsyncInterval
	log, err := framelog.Open(cfg)
	if err != nil {
		return err
	}
	var size int
	for _, p := range lr.fs.payloads {
		size += len(p)
	}
	limit := max(minCalls, maxLogBytes/(size/len(lr.fs.payloads)))
	durs, err := timeCalls(sp, "framelog.Log.Append", len(lr.fs.payloads), limit, func(i int) error {
		_, err := log.Append(uint64(i+1), lr.fs.payloads[i])
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lr.out["framelog.append_us"] = float64(fastest(durs)) / float64(time.Microsecond)
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serialLatencies sends every frame rounds times to each of a and b, one
// request at a time and alternating, and returns the median latency of
// each side.  Answers are checked like the window's.
func serialLatencies(a, b *acqserver.Client, fs *frameSet, rounds int, parent trace.Span) (ma, mb time.Duration, err error) {
	ra, rb := &recorder{}, &recorder{}
	for r := 0; r < rounds; r++ {
		for i := range fs.payloads {
			first, second := a, b
			fr, sr := ra, rb
			if (r+i)%2 == 1 {
				first, second, fr, sr = b, a, rb, ra
			}
			do(first, fs, i, time.Now(), 0, fr, parent)
			do(second, fs, i, time.Now(), 0, sr, parent)
		}
	}
	for _, rec := range []*recorder{ra, rb} {
		if rec.firstErr != nil {
			return 0, 0, rec.firstErr
		}
	}
	return median(latencies(ra.samples)), median(latencies(rb.samples)), nil
}

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, s.latency)
		}
	}
	return out
}
