package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/httpx"
)

// pipeBytes is the kernel buffer of each subscriber's pipe. One page holds
// only a handful of frames, so a reader that stops reading blocks its
// stream within a few events and the engine-side 256-frame channel, not
// the kernel, decides when the bus starts dropping.
const pipeBytes = 4096

// replayAll asks a stream to replay every retained event.
const replayAll = math.MaxInt32

// pipeWriter is the http.ResponseWriter an in-process SSE subscriber hands
// to Engine.ServeEventStream: writes collect in memory and every Flush is
// one write(2) to an OS pipe, so a stream costs what a socket write costs
// without opening sockets.
type pipeWriter struct {
	h        http.Header
	f        *os.File
	buf      []byte
	err      error
	attached chan struct{}
	// tee, when it has capacity, keeps a copy of the first bytes written
	// to the pipe.
	tee []byte

	writes, flushes, bytes atomic.Int64
}

func (w *pipeWriter) Header() http.Header { return w.h }

// WriteHeader marks the stream attached: ServeEventStream subscribes to
// the bus before it writes the header, so every event published after this
// reaches the stream's channel (see attach for why none is skipped).
func (w *pipeWriter) WriteHeader(int) {
	if w.attached != nil {
		close(w.attached)
		w.attached = nil
	}
}

func (w *pipeWriter) Write(b []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.writes.Add(1)
	w.buf = append(w.buf, b...)
	return len(b), nil
}

func (w *pipeWriter) Flush() {
	w.flushes.Add(1)
	if len(w.buf) == 0 || w.err != nil {
		return
	}
	if k := min(len(w.buf), cap(w.tee)-len(w.tee)); k > 0 {
		w.tee = append(w.tee, w.buf[:k]...)
	}
	n, err := w.f.Write(w.buf)
	w.bytes.Add(int64(n))
	w.buf = w.buf[:0]
	if err != nil {
		w.err = err
	}
}

// sseEvent is one frame as a subscriber received it.
type sseEvent struct {
	name string
	seq  int64
	data []byte
	at   int64 // ns since the workload's base
}

// subscriber is one in-process SSE stream of an engine: ServeEventStream
// on one goroutine writing into a pipe, and a reader on another parsing
// the frames back. The reader checks that sequence numbers arrive exactly
// once and in order and that no events_dropped marker appears.
type subscriber struct {
	w       *pipeWriter
	r       *os.File
	cancel  context.CancelFunc
	served  chan struct{}
	readEnd chan struct{}
	base    time.Time
	onEvent func(sseEvent)

	mu       sync.Mutex
	last     int64
	frames   int64
	failures []string
	nfail    int64
}

// attach starts a stream of all strategies on eng, which must not have
// published any event yet, and returns once the engine has subscribed it
// to the bus. onEvent runs on the reader goroutine for every received
// frame and may block (a stalled reader). The stream keeps a copy of its
// first tee bytes.
//
// A live stream starts after the newest event at the moment it reads the
// sequence, which it does after writing its header; an event published
// in between reaches its channel but is skipped. So the stream asks to
// replay every retained event: on an engine that had published nothing,
// those are exactly the events of that gap.
func attach(eng *engine.Engine, base time.Time, tee int, onEvent func(sseEvent)) (*subscriber, error) {
	if len(eng.RecentEvents(1)) > 0 {
		return nil, fmt.Errorf("attach: the engine has published events already")
	}
	r, wf, err := os.Pipe()
	if err != nil {
		return nil, fmt.Errorf("pipe: %w", err)
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_FCNTL, wf.Fd(), syscall.F_SETPIPE_SZ, pipeBytes); errno != 0 {
		r.Close()
		wf.Close()
		return nil, fmt.Errorf("set pipe size: %w", errno)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/api/v2/events/stream", nil)
	if err != nil {
		cancel()
		r.Close()
		wf.Close()
		return nil, err
	}
	attached := make(chan struct{})
	s := &subscriber{
		w:       &pipeWriter{h: make(http.Header), f: wf, attached: attached, tee: make([]byte, 0, tee)},
		r:       r,
		cancel:  cancel,
		served:  make(chan struct{}),
		readEnd: make(chan struct{}),
		base:    base,
		onEvent: onEvent,
	}
	go func() {
		defer close(s.readEnd)
		err := httpx.ReadSSE(r, s.receive)
		if err != nil {
			s.fail("read stream: %v", err)
		}
	}()
	go func() {
		defer close(s.served)
		eng.ServeEventStream(s.w, req, "", replayAll)
	}()
	select {
	case <-attached:
		return s, nil
	case <-s.served:
		s.close()
		return nil, fmt.Errorf("event stream ended before attaching")
	case <-time.After(10 * time.Second):
		s.close()
		return nil, fmt.Errorf("event stream did not attach within 10s")
	}
}

func (s *subscriber) receive(se httpx.SSEEvent) error {
	at := int64(time.Since(s.base))
	s.mu.Lock()
	if se.Name == string(engine.EventEventsDropped) {
		s.failLocked("events_dropped marker after seq %d", s.last)
		s.mu.Unlock()
		return nil
	}
	seq, err := strconv.ParseInt(se.ID, 10, 64)
	if err != nil {
		s.failLocked("frame without a sequence id: %q", se.ID)
		s.mu.Unlock()
		return nil
	}
	if seq != s.last+1 {
		s.failLocked("got seq %d after %d", seq, s.last)
	}
	if seq > s.last {
		s.last = seq
	}
	s.frames++
	s.mu.Unlock()
	if s.onEvent != nil {
		s.onEvent(sseEvent{name: se.Name, seq: seq, data: se.Data, at: at})
	}
	return nil
}

func (s *subscriber) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(format, args...)
}

func (s *subscriber) failLocked(format string, args ...any) {
	s.nfail++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *subscriber) lastSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// close ends the stream and waits for both goroutines.
func (s *subscriber) close() {
	s.cancel()
	<-s.served
	s.w.f.Close()
	<-s.readEnd
	s.r.Close()
}

// readerAllocs is the heap allocations per frame of a subscriber's
// reader alone, ReadSSE and the sequence check, over frames a stream
// wrote.
func readerAllocs(frames []byte) float64 {
	s := &subscriber{base: time.Now()}
	u0 := snapshot()
	_ = httpx.ReadSSE(bytes.NewReader(frames), s.receive) // a cut last frame is not counted
	return ratio(u0.to(snapshot()).allocs, float64(s.frames))
}

// checkSeqs counts what a stream that should have received exactly
// 1..want got wrong: every skipped, repeated or out-of-order sequence
// number (recorded by receive) plus any tail it never received.
func (s *subscriber) checkSeqs(want int64) (failed int64, notes []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	failed, notes = s.nfail, append([]string(nil), s.failures...)
	if s.last < want {
		failed += want - s.last
		notes = append(notes, fmt.Sprintf("stream ended at seq %d of %d", s.last, want))
	}
	return failed, notes
}
