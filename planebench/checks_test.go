package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/httpx"
)

// A backend answering 5xx through the proxy counts as a failed operation.
func TestDataplaneCountsUpstream5xxAsFailed(t *testing.T) {
	env, err := newDPEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "synthetic failure", http.StatusServiceUnavailable)
	}))
	defer broken.Close()
	env.urls[0], env.urls[1] = broken.URL, broken.URL
	env.next.Store(2)
	if err := env.p.SetConfig(env.config(2)); err != nil {
		t.Fatal(err)
	}
	env.cur.Store(2)

	c := newDPClient(1)
	base := time.Now()
	for i := 0; i < 5; i++ {
		c.do(env, base)
	}
	seg := &dpSegment{recs: c.recs, per: [][]dpRecord{c.recs}, cost: delta{wall: time.Second}}
	f := seg.figures(env)
	if f.attempted != 5 || f.failed != 5 || c.nerr != 5 {
		t.Fatalf("attempted %d failed %d client errors %d, want 5/5/5 (%v)", f.attempted, f.failed, c.nerr, c.errs)
	}
}

func TestCheckResponse(t *testing.T) {
	env := &dpEnv{urls: [2]string{"http://a", "http://b"}}
	// Generation 1 of shape 0 is the 95/5 canary; generation 2 the dark
	// launch, where only stable serves.
	for _, c := range []struct {
		status           int
		version, backend string
		lo, hi           int64
		wantFail         bool
	}{
		{200, "canary", "canary", 1, 1, false},
		{200, "canary", "canary", 2, 2, true},
		{200, "canary", "canary", 1, 2, false}, // in flight across the swap
		{200, "", "", 1, 1, true},
		{503, "stable", "stable", 1, 1, true},
		{204, "stable", "stable", 2, 2, false},
		{200, "canary", "stable", 1, 1, true}, // labelled canary, sent to stable
		{200, "stable", "", 1, 1, true},       // no backend answered
	} {
		err := checkResponse(env, c.status, c.version, c.backend, c.lo, c.hi)
		if (err != nil) != c.wantFail {
			t.Errorf("checkResponse(%d, %q from %q, %d..%d) = %v, want failure %v",
				c.status, c.version, c.backend, c.lo, c.hi, err, c.wantFail)
		}
	}
}

func TestStickyViolations(t *testing.T) {
	env := &dpEnv{shape0: 2} // generation 1 is the sticky A/B shape
	if !env.config(1).Sticky || env.config(2).Sticky {
		t.Fatal("shape layout changed; fix the test's generations")
	}
	recs := []dpRecord{
		{gLo: 1, gHi: 1, user: 1, version: 0, ok: true},
		{gLo: 1, gHi: 1, user: 1, version: 0, ok: true},
		{gLo: 1, gHi: 1, user: 1, version: 1, ok: true}, // flipped within the generation
		{gLo: 1, gHi: 2, user: 2, version: 1, ok: true}, // spans a swap: not judged
		{gLo: 1, gHi: 1, user: 2, version: 0, ok: true},
		{gLo: 2, gHi: 2, user: 1, version: 1, ok: true}, // not sticky
	}
	if got := stickyViolations(env, recs); got != 1 {
		t.Errorf("stickyViolations = %d, want 1", got)
	}
}

// A stream that skips a sequence number, repeats one, shows an
// events_dropped marker or ends early counts each as a failure.
func TestSubscriberCountsSequenceFaults(t *testing.T) {
	s := &subscriber{base: time.Now()}
	for _, id := range []string{"1", "2", "4", "4", "5"} {
		if err := s.receive(httpx.SSEEvent{Name: "check_executed", ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	if failed, notes := s.checkSeqs(5); failed != 2 {
		t.Errorf("skip + repeat: failed = %d, want 2 (%v)", failed, notes)
	}
	if failed, _ := s.checkSeqs(7); failed != 4 {
		t.Errorf("with two events never received: failed = %d, want 4", failed)
	}
	_ = s.receive(httpx.SSEEvent{Name: string(engine.EventEventsDropped), ID: "6"})
	if failed, _ := s.checkSeqs(5); failed != 3 {
		t.Errorf("after an events_dropped marker: failed = %d, want 3", failed)
	}
}

// The pipe-backed stream delivers what the engine publishes, once each
// (fewer events than the stream's channel holds, so none are dropped).
func TestAttachedStreamReceivesEveryEvent(t *testing.T) {
	eng := engine.New()
	var got []int64
	s, err := attach(eng, time.Now(), 0, func(ev sseEvent) { got = append(got, ev.seq) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		eng.PublishBench(engine.Event{Strategy: "t", Type: engine.EventCheckExecuted, Time: time.Now()})
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.lastSeq() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	eng.Shutdown()
	s.close()
	if failed, notes := s.checkSeqs(100); failed != 0 || len(got) != 100 {
		t.Fatalf("received %d frames, %d failures: %v", len(got), failed, notes)
	}
	if fl, fr := s.w.flushes.Load(), s.frames; fl < fr {
		t.Errorf("%d flushes for %d frames", fl, fr)
	}
}

// headerHookWriter runs hook at the stream's first flush, the one that
// sends its header, and keeps what the stream writes.
type headerHookWriter struct {
	h    http.Header
	hook func()
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (w *headerHookWriter) Header() http.Header { return w.h }
func (w *headerHookWriter) WriteHeader(int)     {}
func (w *headerHookWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}
func (w *headerHookWriter) Flush() {
	if hook := w.hook; hook != nil {
		w.hook = nil
		hook()
	}
}

func (w *headerHookWriter) ids() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ids []string
	for _, line := range strings.Split(w.buf.String(), "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// An event published while a stream sends its header, after attach has
// seen it attached, still reaches the stream as attach starts it.
func TestStreamKeepsEventsPublishedDuringItsHeader(t *testing.T) {
	eng := engine.New()
	defer eng.Shutdown()
	ev := engine.Event{Strategy: "t", Type: engine.EventCheckExecuted, Time: time.Now()}
	w := &headerHookWriter{h: make(http.Header), hook: func() { eng.PublishBench(ev) }}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/api/v2/events/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.ServeEventStream(w, req, "", replayAll)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(eng.RecentEvents(1)) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	eng.PublishBench(ev)
	for len(w.ids()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if got := strings.Join(w.ids(), ","); got != "1,2" {
		t.Fatalf("stream sent ids %q, want 1,2", got)
	}
}
