package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/acqserver"
	"repro/internal/instrument"
	"repro/internal/telemetry/trace"
)

// requestTimeout bounds one request; a frame unanswered by then counts as
// failed.
const requestTimeout = 30 * time.Second

// sample is the outcome of one request.
type sample struct {
	latency time.Duration // from when the frame was due to be sent
	lag     time.Duration // how late the open-loop generator sent
	ok      bool          // OK answer that matched the reference
	wrong   bool          // OK answer that did not
	res     *acqserver.Result
}

// recorder collects samples from concurrent requests.
type recorder struct {
	mu       sync.Mutex
	samples  []sample
	firstErr error
}

func (r *recorder) add(s sample, err error) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

// do sends one pre-encoded frame and checks the answer.  start is the time
// latency is measured from.
func do(cl *acqserver.Client, fs *frameSet, idx int, start time.Time, lag time.Duration, rec *recorder, parent trace.Span) {
	sp := parent.Child("acqserver.Client.DoPayload")
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	resp, err := cl.DoPayload(ctx, fs.payloads[idx], 0)
	cancel()
	s := sample{latency: time.Since(start), lag: lag}
	switch {
	case err != nil:
		err = fmt.Errorf("frame %d: %w", idx, err)
	case resp.Code != acqserver.CodeOK:
		err = fmt.Errorf("frame %d: %v: %s", idx, resp.Code, resp.Message)
	default:
		s.res = resp.Result
		if cerr := fs.refs[idx].check(resp.Result); cerr != nil {
			s.wrong = true
			err = fmt.Errorf("frame %d: wrong answer: %w", idx, cerr)
		} else {
			s.ok = true
		}
	}
	if sp.Active() {
		sp.SetInt("frame", int64(idx))
		sp.SetInt("ok", boolInt(s.ok))
		sp.SetInt("latency_ns", int64(s.latency))
		sp.SetInt("lag_ns", int64(lag))
		if s.res != nil {
			sp.SetInt("queue_wait_ns", int64(s.res.QueueWaitNs))
			sp.SetInt("process_ns", int64(s.res.ProcessNs))
			sp.SetInt("backend", int64(s.res.Backend))
		}
		sp.End()
	}
	rec.add(s, err)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// dialAll opens the load connections one after another, so a gateway
// numbers their sessions 1..n in order.
func dialAll(addr string, n int) ([]*acqserver.Client, error) {
	var cls []*acqserver.Client
	for i := 0; i < n; i++ {
		cl, err := acqserver.Dial(addr, 5*time.Second)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func closeAll(cls []*acqserver.Client) {
	for _, cl := range cls {
		_ = cl.Close()
	}
}

// warmUp sends every distinct frame twice on every connection, one at a
// time, so pools, caches and coalescer state settle before measuring.
func warmUp(cls []*acqserver.Client, fs *frameSet) *recorder {
	rec := &recorder{}
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *acqserver.Client) {
			defer wg.Done()
			for k := 0; k < 2*len(fs.payloads); k++ {
				do(cl, fs, (c+k)%len(fs.payloads), time.Now(), 0, rec, trace.Span{})
			}
		}(c, cl)
	}
	wg.Wait()
	return rec
}

// window is the measured part of a run.
type window struct {
	rec     *recorder
	rssPeak int64         // largest resident set seen during the window, bytes
	elapsed time.Duration // window open until the last answer
	cpu     time.Duration // process user+sys CPU over elapsed
	mem0    runtimeSnapshot
	mem1    runtimeSnapshot
}

// runWindow drives the workload's load for d and waits for every answer.
// Each connection sends burst frames every cycle (connection c offset by
// c/n of a cycle), each timed from when it was due; a late sender shows as
// lag and as latency, never as a gap.
func runWindow(w workload, cls []*acqserver.Client, fs *frameSet, cycle, d time.Duration, root trace.Span) window {
	win := window{rec: &recorder{}}
	win.mem0 = readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	stopRSS := make(chan struct{})
	rssDone := make(chan struct{})
	go func() {
		defer close(rssDone)
		win.rssPeak = sampleRSS(stopRSS)
	}()
	n := len(fs.payloads)
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, cl *acqserver.Client) {
			defer wg.Done()
			offset := cycle * time.Duration(c) / time.Duration(len(cls))
			for j := 0; ; j++ {
				due := start.Add(offset + time.Duration(j)*cycle)
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				for b := 0; b < w.burst; b++ {
					idx := ((j*len(cls)+c)*w.burst + b) % n
					wg.Add(1)
					go func() {
						defer wg.Done()
						do(cl, fs, idx, due, time.Since(due), win.rec, root)
					}()
				}
			}
		}(c, cl)
	}
	wg.Wait()
	close(stopRSS)
	<-rssDone
	win.elapsed = time.Since(start)
	win.cpu = processCPU() - cpu0
	win.mem1 = readRuntime()
	return win
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssInterval is how often the window samples the resident set.
const rssInterval = 20 * time.Millisecond

// sampleRSS reads the process's resident set every rssInterval until stop
// closes and returns the largest value read, bytes.  The kernel's own
// high-water mark would include the set-ups before the window.
func sampleRSS(stop <-chan struct{}) int64 {
	tick := time.NewTicker(rssInterval)
	defer tick.Stop()
	peak := residentBytes()
	for {
		select {
		case <-stop:
			return max(peak, residentBytes())
		case <-tick.C:
			peak = max(peak, residentBytes())
		}
	}
}

// residentBytes is the process's current resident set (VmRSS), bytes, or
// 0 where /proc is unavailable.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// windowStats are the end-to-end figures of one window.
type windowStats struct {
	attempted, ok, wrong, failed int
	onTime                       int // OK within one modulation cycle
	p50, p99                     time.Duration
	framesPerS                   float64
	cpuPerFrame                  time.Duration
}

// stats summarizes the window.  An answer is on time when it arrives
// within deadline of being due.
func (win window) stats(deadline time.Duration) windowStats {
	var st windowStats
	lat := make([]time.Duration, 0, len(win.rec.samples))
	for _, s := range win.rec.samples {
		st.attempted++
		switch {
		case s.ok:
			st.ok++
			lat = append(lat, s.latency)
			if s.latency <= deadline {
				st.onTime++
			}
		case s.wrong:
			st.wrong++
		}
	}
	st.failed = st.attempted - st.ok
	st.p50 = quantile(lat, 0.50)
	st.p99 = quantile(lat, 0.99)
	st.framesPerS = float64(st.ok) / win.elapsed.Seconds()
	if st.ok > 0 {
		st.cpuPerFrame = win.cpu / time.Duration(st.ok)
	}
	return st
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cycleDuration is one modulation cycle of the instrument the frames come
// from (511 drift bins of 100 µs at order 9).
func cycleDuration() time.Duration {
	return time.Duration(instrument.DefaultConfig().CycleDuration() * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
