package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/acqserver"
	"repro/internal/framelog"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/runtimemetrics"
	"repro/internal/telemetry/trace"
	"repro/internal/telemetry/tsdb"
)

// backendAddrs are the cluster backends' listen addresses.  The gateway
// routes a session by hashing its id onto a ring of "addr#vnode" points,
// so fixed addresses give the same split on every run; with these two,
// gateway sessions 1 and 2 (the load connections) land on different
// backends.  Both ports sit below Linux's ephemeral range.
var backendAddrs = []string{"127.0.0.1:27417", "127.0.0.1:27418"}

// historyInterval is the tsdb sampler period of the cluster backends,
// short enough that a run holds many sampler ticks.
const historyInterval = time.Second

// coalesceWindow and coalesceFill configure the cluster backends'
// cross-session micro-batching.
const (
	coalesceWindow = 2 * time.Millisecond
	coalesceFill   = 8
)

// node is one running acqserver with what it owns.
type node struct {
	srv     *acqserver.Server
	reg     *telemetry.Registry
	addr    string
	served  chan error
	store   *tsdb.Store
	sampler *tsdb.Sampler
}

// stack is the serving stack one workload drives: one acqserver, or a
// gateway in front of two.
type stack struct {
	cfg      acqserver.Config // the backends' configuration
	nodes    []*node
	gw       *gateway.Gateway
	gwServed chan error
	target   string // address the load connections dial
}

// baseConfig is acqserver as cmd/imsd runs it by default: DefaultConfig
// with the metrics registry (and its runtime families) and the flight
// recorder on, tracing off, no frame log, no coalescing.
func baseConfig() acqserver.Config {
	cfg := acqserver.DefaultConfig()
	reg := telemetry.NewRegistry()
	runtimemetrics.Register(reg)
	cfg.Metrics = reg
	cfg.FlightRecorder = flightrec.New(flightrec.Config{Size: 4096, Metrics: reg})
	return cfg
}

// clusterConfig is a backend of the cluster workload: a frame log under
// dir with fsync "interval" and coalescing, plus, with plane set, the
// base configuration's telemetry and tracing (cmd/imsd's -trace defaults).
func clusterConfig(dir string, plane bool) (acqserver.Config, error) {
	cfg := acqserver.DefaultConfig()
	if plane {
		cfg = baseConfig()
		cfg.Trace = trace.New(trace.Config{SampleEvery: trace.DefaultSampleEvery, RingSize: trace.DefaultRingSize})
	}
	wcfg := framelog.DefaultConfig(filepath.Join(dir, "framelog"))
	wcfg.Fsync = framelog.FsyncInterval
	wcfg.Metrics = cfg.Metrics
	wcfg.Trace = cfg.Trace
	wal, err := framelog.Open(wcfg)
	if err != nil {
		return cfg, err
	}
	cfg.FrameLog = wal
	cfg.CoalesceWindow = coalesceWindow
	cfg.CoalesceFillTarget = coalesceFill
	return cfg, nil
}

// startNode starts one acqserver on addr.  With historyDir set, it also
// runs a tsdb store and sampler over the node's registry.  On error
// everything started is stopped again, the config's frame log included.
func startNode(cfg acqserver.Config, addr, historyDir string) (*node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if cfg.FrameLog != nil {
			_ = cfg.FrameLog.Close()
		}
		return nil, err
	}
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		_ = ln.Close()
		if cfg.FrameLog != nil {
			_ = cfg.FrameLog.Close()
		}
		return nil, err
	}
	n := &node{srv: srv, reg: cfg.Metrics, addr: ln.Addr().String(), served: make(chan error, 1)}
	if historyDir != "" {
		hcfg := tsdb.DefaultConfig(historyDir)
		hcfg.Metrics = cfg.Metrics
		store, err := tsdb.Open(hcfg)
		if err != nil {
			_ = ln.Close()
			_ = srv.Shutdown(context.Background()) // also closes the frame log
			return nil, err
		}
		n.store = store
		n.sampler = tsdb.NewSampler(cfg.Metrics, store, historyInterval)
		go n.sampler.Run()
	}
	go func() { n.served <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the node and waits for its goroutines.
func (n *node) stop(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, net.ErrClosed) {
		err = errors.Join(err, serr)
	}
	if n.sampler != nil {
		n.sampler.Stop()
		err = errors.Join(err, n.store.Close())
	}
	return err
}

// startStack brings up the workload's stack; dir holds the cluster's
// frame logs and metric history.
func startStack(w workload, dir string) (*stack, error) {
	st := &stack{}
	if !w.cluster {
		st.cfg = baseConfig()
		n, err := startNode(st.cfg, "127.0.0.1:0", "")
		if err != nil {
			return nil, err
		}
		st.nodes = []*node{n}
		st.target = n.addr
		return st, nil
	}
	gcfg := gateway.DefaultConfig()
	for i, addr := range backendAddrs {
		bdir := filepath.Join(dir, fmt.Sprintf("backend-%d", i))
		cfg, err := clusterConfig(bdir, true)
		if err != nil {
			_ = st.close()
			return nil, err
		}
		st.cfg = cfg
		n, err := startNode(cfg, addr, filepath.Join(bdir, "history"))
		if err != nil {
			_ = st.close()
			return nil, fmt.Errorf("backend %s: %w", addr, err)
		}
		st.nodes = append(st.nodes, n)
		gcfg.Backends = append(gcfg.Backends, gateway.BackendConfig{Addr: addr})
	}
	greg := telemetry.NewRegistry()
	gcfg.Metrics = greg
	gcfg.Trace = trace.New(trace.Config{SampleEvery: trace.DefaultSampleEvery, RingSize: trace.DefaultRingSize})
	gcfg.FlightRecorder = flightrec.New(flightrec.Config{Size: 4096, Metrics: greg})
	gw, err := gateway.New(gcfg)
	if err != nil {
		_ = st.close()
		return nil, err
	}
	st.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = st.close()
		return nil, err
	}
	st.gwServed = make(chan error, 1)
	go func() { st.gwServed <- gw.Serve(ln) }()
	st.target = ln.Addr().String()
	return st, nil
}

// stopTimeout bounds one graceful drain.
const stopTimeout = 30 * time.Second

// close shuts the gateway down first, then the backends.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
	defer cancel()
	var err error
	if st.gw != nil {
		err = st.gw.Shutdown(ctx)
		if st.gwServed != nil {
			if serr := <-st.gwServed; !errors.Is(serr, net.ErrClosed) {
				err = errors.Join(err, serr)
			}
		}
	}
	for _, n := range st.nodes {
		err = errors.Join(err, n.stop(ctx))
	}
	return err
}

// counter sums one counter family instance over every node's registry.
func (st *stack) counter(name string, labels ...telemetry.Label) int64 {
	var v int64
	for _, n := range st.nodes {
		v += n.reg.Counter(name, "", labels...).Value()
	}
	return v
}

// histogram sums one histogram family instance over every node's registry.
func (st *stack) histogram(name string, labels ...telemetry.Label) (count int64, sum float64, counts [telemetry.NumBuckets]int64) {
	for _, n := range st.nodes {
		h := n.reg.Histogram(name, "", labels...)
		count += h.Count()
		sum += h.Sum()
		c := h.Counts()
		for i := range counts {
			counts[i] += c[i]
		}
	}
	return count, sum, counts
}
