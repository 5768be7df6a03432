// fault_test.go: the exactly-once serving invariant under injected faults.
// Every case runs with coalescing off and on, over three concurrent
// sessions on one single-worker shard with a frame log and a flight
// recorder, and checks that every accepted frame is answered exactly once
// (one response, at most one wide event, one frame-log completion) and
// that no second answer was ever attempted.
package acqserver

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/telemetry/flightrec"
)

// slowDecoder hides the FHT's blocked kernel and sleeps per column, so a
// shared decode lasts long enough for a deadline to expire mid-batch.
type slowDecoder struct{ hadamard.Decoder }

func (d slowDecoder) Decode(y []float64) ([]float64, error) {
	time.Sleep(2 * time.Millisecond)
	return d.Decoder.Decode(y)
}

// faultRun is the live state one case's hook and driver share.
type faultRun struct {
	s       *Server
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
}

// hold blocks the calling hook until the driver closes release.
func (fr *faultRun) hold() {
	fr.started <- struct{}{}
	select {
	case <-fr.release:
	case <-time.After(5 * time.Second):
	}
}

type faultCase struct {
	name string
	// opts returns session i's frame options (all CPU path by default).
	opts func(i int) FrameOptions
	// hook, when set, replaces the per-member compute; n counts calls.
	hook func(fr *faultRun, t *task, n int64) (*Result, error)
	// slow decodes through slowDecoder instead of the blocked kernel.
	slow bool
	// fill is the coalesce fill target (default 4: three frames dispatch
	// on the window).
	fill int
	// closeFirst makes session 0 a raw connection that closes right after
	// writing its frame.
	closeFirst bool
	// during runs once all three frames are accepted.
	during func(t *testing.T, fr *faultRun)
	// want is the client-visible response codes, coalescing off and on.
	want [2]map[Code]int
	// detail, when set, must appear in some wide event's detail when
	// coalescing is on.
	detail string
}

func TestFaultInjectionExactlyOnce(t *testing.T) {
	both := func(m map[Code]int) [2]map[Code]int { return [2]map[Code]int{m, m} }
	cases := []faultCase{
		{
			name: "panic on second member after first answered",
			hook: func(_ *faultRun, _ *task, n int64) (*Result, error) {
				if n == 2 {
					panic("synthetic compute failure")
				}
				return &Result{}, nil
			},
			// Solo frames isolate the panic; in a batch the members after
			// the panicking one are answered INTERNAL too, the first not
			// a second time.
			want: [2]map[Code]int{{CodeOK: 2, CodeInternal: 1}, {CodeOK: 1, CodeInternal: 2}},
		},
		{
			name: "hook returns an error",
			hook: func(_ *faultRun, _ *task, n int64) (*Result, error) {
				if n == 2 {
					return nil, errors.New("synthetic decode error")
				}
				return &Result{}, nil
			},
			want: both(map[Code]int{CodeOK: 2, CodeInternal: 1}),
		},
		{
			name: "deadline expires before dispatch",
			opts: func(i int) FrameOptions {
				if i == 0 {
					return FrameOptions{Path: PathCPU}
				}
				return FrameOptions{Path: PathCPU, Deadline: time.Millisecond}
			},
			hook: func(fr *faultRun, _ *task, n int64) (*Result, error) {
				if n == 1 {
					fr.hold()
				}
				return &Result{}, nil
			},
			during: func(t *testing.T, fr *faultRun) {
				time.Sleep(5 * time.Millisecond)
				close(fr.release)
			},
			want: both(map[Code]int{CodeOK: 1, CodeDeadlineExceeded: 2}),
		},
		{
			name: "earliest deadline expires mid-batch",
			opts: func(i int) FrameOptions {
				if i == 2 {
					return FrameOptions{Path: PathCPU, Deadline: 80 * time.Millisecond}
				}
				return FrameOptions{Path: PathCPU}
			},
			slow:   true,
			fill:   3, // dispatch as soon as the deadlined frame joins
			want:   both(map[Code]int{CodeOK: 2, CodeDeadlineExceeded: 1}),
			detail: "in coalesced batch",
		},
		{
			name:       "session closes before its write",
			closeFirst: true,
			hook: func(_ *faultRun, t *task, _ int64) (*Result, error) {
				if t.sess.id == 1 {
					select {
					case <-t.sess.done:
					case <-time.After(5 * time.Second):
					}
				}
				return &Result{}, nil
			},
			want: both(map[Code]int{CodeOK: 2}),
		},
		{
			name: "shutdown starts mid-batch",
			hook: func(fr *faultRun, _ *task, n int64) (*Result, error) {
				if n == 1 {
					fr.hold()
				}
				return &Result{}, nil
			},
			during: func(t *testing.T, fr *faultRun) {
				<-fr.started
				done := make(chan error, 1)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					done <- fr.s.Shutdown(ctx)
				}()
				waitFor(t, "drain to begin", fr.s.draining.Load)
				close(fr.release)
				if err := <-done; err != nil {
					t.Errorf("drain: %v", err)
				}
			},
			want: both(map[Code]int{CodeOK: 3}),
		},
	}
	for _, fc := range cases {
		for mode, coalesce := range []bool{false, true} {
			name := fc.name + "/solo"
			if coalesce {
				name = fc.name + "/coalesced"
			}
			t.Run(name, func(t *testing.T) { runFault(t, fc, coalesce, fc.want[mode]) })
		}
	}
}

func runFault(t *testing.T, fc faultCase, coalesce bool, want map[Code]int) {
	dir := t.TempDir()
	flight := flightrec.New(flightrec.Config{Size: 64})
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard, cfg.QueueDepth = 1, 1, 8
	cfg.FlightRecorder = flight
	cfg.FrameLog = openWAL(t, dir, framelog.FsyncNone)
	if coalesce {
		cfg.CoalesceWindow = 50 * time.Millisecond
		cfg.CoalesceFillTarget = 4
		if fc.fill != 0 {
			cfg.CoalesceFillTarget = fc.fill
		}
	}
	// started holds one signal per hook call, so a hook never blocks on it.
	fr := &faultRun{started: make(chan struct{}, 3), release: make(chan struct{})}
	if fc.hook != nil {
		cfg.processHook = func(tk *task) (*Result, error) { return fc.hook(fr, tk, fr.calls.Add(1)) }
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr.s = s
	if fc.slow {
		s.decoder = func() (hadamard.Decoder, error) {
			d, err := hadamard.NewFHTDecoder(cfg.Order)
			return slowDecoder{d}, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	defer shutdown()

	accepted := func() int64 { return s.m.framesByPath[PathCPU].Value() + s.m.framesByPath[PathHybrid].Value() }
	codes := make(chan Code, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		opts := FrameOptions{Path: PathCPU}
		if fc.opts != nil {
			opts = fc.opts(i)
		}
		if i == 0 && fc.closeFirst {
			conn := rawDial(t, ln.Addr().String())
			rawHello(t, conn)
			if err := WriteMessage(conn, MsgFrame, 1, framePayload(t, testFrame(32), opts)); err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
		} else {
			c := dialClient(t, ln.Addr().String())
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				resp, err := c.Do(ctx, testFrame(32), frameio.Raw, opts)
				if err != nil {
					t.Error(err)
					return
				}
				codes <- resp.Code
			}()
		}
		// Frames arrive in session order: the next is sent once this one
		// sits in the shard queue.
		waitFor(t, "frame accepted", func() bool { return accepted() == int64(i+1) })
	}
	if fc.during != nil {
		fc.during(t, fr)
	}
	wg.Wait()
	close(codes)
	got := map[Code]int{}
	for c := range codes {
		got[c]++
	}
	if len(got) != len(want) {
		t.Errorf("response codes %v, want %v", got, want)
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("response codes %v, want %v", got, want)
			break
		}
	}

	// Server side: one answer per accepted frame.  respond runs once per
	// answer (plus once per HELLO); a frame answered onto a closed session
	// may have its event dropped with the message, never duplicated.
	waitFor(t, "all frames answered", func() bool {
		var n int64
		for _, c := range s.m.responses {
			n += c.Value()
		}
		return n-3 >= 3 // three HELLO_OKs
	})
	if n := s.m.doubleAnswer.Value(); n != 0 {
		t.Errorf("acq_double_answer_total = %d, want 0", n)
	}

	// A wide event is recorded only after its response is written (or
	// dropped with a closed session), which can trail both the answer
	// count and the client's read; once the drain has stopped every write
	// loop, all events are in the recorder.
	shutdown()
	var n int64
	for _, c := range s.m.responses {
		n += c.Value()
	}
	if n-3 != 3 {
		t.Errorf("%d frame answers sent, want 3", n-3)
	}
	perReq := map[[2]uint64]int{}
	sawDetail := false
	for _, e := range flight.Snapshot(flightrec.Filter{}) {
		perReq[[2]uint64{e.Session, e.ReqID}]++
		sawDetail = sawDetail || (fc.detail != "" && strings.Contains(e.Detail, fc.detail))
	}
	for id, n := range perReq {
		if n != 1 {
			t.Errorf("session %d request %d has %d wide events, want 1", id[0], id[1], n)
		}
	}
	if len(perReq) < 2 {
		t.Errorf("%d frames have wide events, want at least the 2 open sessions'", len(perReq))
	}
	if coalesce && fc.detail != "" && !sawDetail {
		t.Errorf("no wide event detail mentions %q", fc.detail)
	}

	// Every appended frame carries its completion mark once the drained
	// log is reopened.
	wal := openWAL(t, dir, framelog.FsyncNone)
	defer wal.Close()
	if wal.LastSeq() != 3 {
		t.Fatalf("frame log holds %d records, want 3", wal.LastSeq())
	}
	for seq := uint64(1); seq <= wal.LastSeq(); seq++ {
		if !wal.Completed(seq) {
			t.Errorf("frame-log seq %d not completed", seq)
		}
	}
}

// TestTaskAnswerOnce: a second answer to the same task is dropped and
// counted, and neither the frame log nor the frame pool sees it twice.
func TestTaskAnswerOnce(t *testing.T) {
	cfg := testConfig()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	tk := &task{reqID: 7, frame: s.framePool.Get(31, 4), path: PathCPU}
	tk.answerError(s, CodeInternal, "first", nil)
	tk.answerError(s, CodeInternal, "second", nil)
	if got := s.m.recovered["error"].Value(); got != 1 {
		t.Errorf("answers delivered = %d, want 1", got)
	}
	if got := s.m.doubleAnswer.Value(); got != 1 {
		t.Errorf("acq_double_answer_total = %d, want 1", got)
	}
}
