package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/acqserver"
	"repro/internal/chem"
	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
)

// workload is one traffic mix.  All workloads serve order-9 frames (511
// drift bins); they differ in frame width, compute path, arrival process
// and the stack the frames cross.
type workload struct {
	name    string
	tofBins int
	path    acqserver.Path
	// burst is how many frames each connection sends every modulation
	// cycle, regardless of how fast answers come back (an open loop).
	burst int
	// cluster routes the frames through a gateway in front of two
	// backends with frame logs, coalescing and the full telemetry plane.
	cluster bool
	// distinct is how many different frames the connections cycle
	// through; each gets its own reference answer.
	distinct int
}

// connections is the client connection count of every workload: one per
// CPU of the 2-core machine the workloads are sized for.
const connections = 2

// optsPrefix is the size of a FRAME payload's options prefix.
const optsPrefix = 5

var workloads = []workload{
	// The per-column layers (frameio delta decode, FWHT decode) do nearly
	// all the work, at the instrument's own pace.
	{name: "cpu-wide-paced", tofBins: 1024, path: acqserver.PathCPU, burst: 1, distinct: 4},
	// The modeled FPGA offload at the instrument's own pace: two
	// instruments, one frame per modulation cycle each.
	{name: "hybrid-paced", tofBins: 256, path: acqserver.PathHybrid, burst: 1, distinct: 4},
	// Narrow frames make per-frame costs dominate (gateway hop, frame-log
	// append, coalescer, peaks, telemetry); bursts let batches form.
	{name: "narrow-burst-cluster", tofBins: 16, path: acqserver.PathCPU, burst: 8, cluster: true, distinct: 16},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// frameSet is a workload's generated input: the frames, their encoded
// FRAME payloads and the answer the server must give for each.
type frameSet struct {
	frames   []*instrument.Frame
	payloads [][]byte // FRAME payload: options prefix + frameio bytes
	refs     []reference
}

// reference is the expected answer for one frame.
type reference struct {
	decoded     *instrument.Frame
	peaks       []acqserver.PeakSummary
	simulatedNs uint64
	saturations uint64
}

// peptides seed the analyte mixtures; each frame draws three of them with
// random abundances over a synthetic chemical background.
var peptides = []string{"RPPGFSPFR", "DRVYIHPF", "YGGFL", "YGGFM", "GIGAVLKVLTTGLPALISWIKRKRQQ", "HSDGTFTSELSRLRDSARLQRLLQGLV"}

// generateFrames builds the workload's distinct frames from the instrument
// model, deterministically in seed, one goroutine per CPU.
func generateFrames(w workload, seed int64) ([]*instrument.Frame, error) {
	frames := make([]*instrument.Frame, w.distinct)
	errs := make([]error, w.distinct)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range frames {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			frames[i], errs[i] = acquireFrame(w.tofBins, seed*1_000_003+int64(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return frames, nil
}

func acquireFrame(tofBins int, seed int64) (*instrument.Frame, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := instrument.DefaultConfig()
	cfg.TOF.Bins = tofBins
	var mix instrument.Mixture
	for i, k := range rng.Perm(len(peptides))[:3] {
		p, err := chem.NewPeptide(peptides[k])
		if err != nil {
			return nil, err
		}
		if err := mix.AddPeptide(fmt.Sprintf("analyte-%d", i), p, 0.5+rng.Float64()); err != nil {
			return nil, err
		}
	}
	bg, err := instrument.SyntheticBackground(rng, 24, 0.5, cfg.TOF.MinMZ, cfg.TOF.MaxMZ)
	if err != nil {
		return nil, err
	}
	for _, a := range bg {
		if err := mix.AddAnalyte(a); err != nil {
			return nil, err
		}
	}
	src, err := instrument.NewESISource(mix, 1e7)
	if err != nil {
		return nil, err
	}
	inst, err := instrument.New(cfg, src)
	if err != nil {
		return nil, err
	}
	f, _, err := inst.Acquire(rng)
	return f, err
}

// framePayload encodes one FRAME payload the way acqserver.Client.Do
// does: the 5-byte options prefix (path, deadline in ms; 0 = none) and
// the delta-encoded frame.  The prefix layout is checked against
// acqserver.SplitFramePayload so a format change fails set-up loudly.
func framePayload(f *instrument.Frame, path acqserver.Path) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(byte(path))
	_ = binary.Write(&buf, binary.LittleEndian, uint32(0))
	if err := frameio.Write(&buf, f, nil, frameio.Delta); err != nil {
		return nil, err
	}
	payload := buf.Bytes()
	opts, _, err := acqserver.SplitFramePayload(payload)
	if err != nil {
		return nil, err
	}
	if opts.Path != path || opts.Deadline != 0 {
		return nil, fmt.Errorf("options prefix decodes as %+v, want path %v and no deadline", opts, path)
	}
	return payload, nil
}

// serverLimits are the frameio bounds acqserver applies to a frame read
// off the socket (see acqserver.NewServer).
func serverLimits(cfg acqserver.Config) frameio.Limits {
	seqLen := uint32(1<<cfg.Order - 1)
	return frameio.Limits{
		MaxHeaderBytes: 4096,
		MaxDriftBins:   seqLen,
		MaxTOFBins:     uint32(cfg.MaxTOFBins),
		MaxCells:       uint64(seqLen) * uint64(cfg.MaxTOFBins),
	}
}

// buildFrameSet encodes every frame and computes its reference answer from
// the frame as the server will see it (decoded back from the payload).
// The CPU reference is the scalar FHT decode, the hybrid reference the
// per-column fixed-point core; both are summarized as the server does.
func buildFrameSet(w workload, frames []*instrument.Frame, cfg acqserver.Config) (*frameSet, error) {
	fs := &frameSet{frames: frames}
	for _, f := range frames {
		p, err := framePayload(f, w.path)
		if err != nil {
			return nil, err
		}
		wire, _, err := frameio.ReadLimited(bytes.NewReader(p[optsPrefix:]), serverLimits(cfg))
		if err != nil {
			return nil, err
		}
		ref, err := referenceAnswer(wire, w.path, cfg)
		if err != nil {
			return nil, err
		}
		fs.payloads = append(fs.payloads, p)
		fs.refs = append(fs.refs, ref)
	}
	return fs, nil
}

func referenceAnswer(f *instrument.Frame, path acqserver.Path, cfg acqserver.Config) (reference, error) {
	out := instrument.NewFrame(f.DriftBins, f.TOFBins)
	col := make([]float64, f.DriftBins)
	var ref reference
	switch path {
	case acqserver.PathCPU:
		dec, err := hadamard.NewFHTDecoder(cfg.Order)
		if err != nil {
			return ref, err
		}
		for t := 0; t < f.TOFBins; t++ {
			f.DriftVectorInto(t, col)
			x, err := dec.Decode(col)
			if err != nil {
				return ref, err
			}
			out.SetDriftVector(t, x)
		}
	case acqserver.PathHybrid:
		oc := offloadConfig(cfg)
		core, err := fpga.NewFHTCore(oc.Order, oc.Format, oc.Growth, oc.ButterflyUnits, oc.MemPorts)
		if err != nil {
			return ref, err
		}
		for t := 0; t < f.TOFBins; t++ {
			f.DriftVectorInto(t, col)
			x, _, err := core.Deconvolve(col)
			if err != nil {
				return ref, err
			}
			out.SetDriftVector(t, x)
		}
		ref.saturations = uint64(core.Saturations())
		oc.TOFColumns = f.TOFBins
		rep, err := hybrid.AnalyzeOffload(oc)
		if err != nil {
			return ref, err
		}
		ref.simulatedNs = uint64(rep.FrameTimeS * 1e9)
	default:
		return ref, fmt.Errorf("unknown path %v", path)
	}
	ref.decoded = out
	var err error
	ref.peaks, err = summarize(out, cfg)
	return ref, err
}

// offloadConfig is the hybrid configuration acqserver derives from its
// Config (NewServer overrides Order; Metrics does not change results).
func offloadConfig(cfg acqserver.Config) hybrid.OffloadConfig {
	oc := cfg.Offload
	oc.Order = cfg.Order
	oc.Metrics = nil
	return oc
}

// summarize reduces a decoded frame to the RESULT peak list: drift-profile
// peaks at the server's SNR threshold, height-descending, capped at
// MaxPeaks.
func summarize(f *instrument.Frame, cfg acqserver.Config) ([]acqserver.PeakSummary, error) {
	found, err := peaks.Detect(f.DriftProfile(), cfg.MinSNR)
	if err != nil {
		return nil, err
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Height > found[j].Height })
	if len(found) > cfg.MaxPeaks {
		found = found[:cfg.MaxPeaks]
	}
	out := make([]acqserver.PeakSummary, len(found))
	for i, p := range found {
		out[i] = acqserver.PeakSummary{Centroid: p.Centroid, Height: p.Height, Area: p.Area, SNR: p.SNR}
	}
	return out, nil
}

// check compares one OK answer with the reference, bit for bit.
func (r *reference) check(res *acqserver.Result) error {
	if res.SimulatedNs != r.simulatedNs {
		return fmt.Errorf("simulated time %d ns, want %d", res.SimulatedNs, r.simulatedNs)
	}
	if res.Saturations != r.saturations {
		return fmt.Errorf("%d saturations, want %d", res.Saturations, r.saturations)
	}
	return samePeaks(res.Peaks, r.peaks)
}

func samePeaks(got, want []acqserver.PeakSummary) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d peaks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("peak %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
