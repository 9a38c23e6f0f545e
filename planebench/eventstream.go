package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/journal"
)

// The eventstream workload: seeded bursts of events, paced by the clock,
// go through Engine.PublishBench on a journaled engine, with one terminal
// completed event per run of bursts. esSubscribers in-process SSE streams
// read them through OS pipes; esLaggards of them stop reading about every
// esStallEvery until esStallEvents more events have been published. That
// is enough to overflow a stream's 256-frame channel, and far enough
// inside the engine's 1024-event ring that a slow catch-up on a busy host
// still finds every missed event there. The stall is counted in events,
// not timed, so a host that oversleeps cannot push a laggard out of the
// ring. An unpaced stretch follows, in which each burst is published once
// every subscriber holds the one before. Host probe slices (probe.go)
// come before and after every window.
const (
	esSubscribers = 8
	esLaggards    = 2
	esBurstEvery  = 5 * time.Millisecond
	esBurstMin    = 16
	esBurstMax    = 48 // bursts average 32 events: 6.4k events/s
	esFastMin     = 96 // unpaced bursts stay below the 256-frame channel
	esFastMax     = 160
	esRunBursts   = 20
	esStallEvents = 320 // about 50 ms of paced events
	esStallEvery  = 250 * time.Millisecond
	esReadFor     = 180 * time.Millisecond // from a resume to the next stall
	// esStallMax ends a stall that no publishing ends, as between windows.
	esStallMax    = time.Second
	esSetups      = 31
	esWarmup      = 200
	esWindows     = 8 // paced
	esP99Windows  = 2 // paced windows per p99
	esFastWindows = 4 // unpaced
	esFastShare   = 0.2
	esDrainLimit  = 10 * time.Second
	esTeeBytes    = 1 << 20
)

// esSub is one subscriber and what its reader recorded. recv and the
// catch-up fields are written only by the reader goroutine and read after
// the stream is closed.
type esSub struct {
	s       *subscriber
	laggard bool
	recv    []int64 // receive time by sequence number
	// resumes are the laggard's resume times and, for each, when it held
	// the newest event published before it resumed.
	resumes, caught []int64
	// warm is closed once the reader holds the last warm-up event.
	warm chan struct{}
}

// esEnv is one set-up: a journaled engine and its attached subscribers.
type esEnv struct {
	dir  string
	eng  *engine.Engine
	subs []*esSub
}

func (e *esEnv) close() {
	for _, s := range e.subs {
		s.s.close()
	}
	if e.eng != nil {
		e.eng.Shutdown()
	}
	_ = os.RemoveAll(e.dir) // scratch journal
}

// esState is shared between the publisher and the readers.
type esState struct {
	published atomic.Int64 // events published so far; equals the newest seq
	stalling  atomic.Bool
	// stalls holds each laggard's pending stall, nil when it reads.
	stalls [esLaggards]atomic.Pointer[stall]
	// The unpaced stretch waits on reached until all subscribers hold
	// the event numbered target.
	target  atomic.Int64
	arrived atomic.Int32
	reached chan struct{}
}

// stall holds a laggard's reader until the event count reaches until.
type stall struct {
	until   int64
	release chan struct{}
}

// add counts one published event and releases every laggard whose stall
// it completes. Only the publisher calls it.
func (st *esState) add() {
	n := st.published.Add(1)
	for i := range st.stalls {
		if s := st.stalls[i].Load(); s != nil && n >= s.until {
			st.end(i, s)
		}
	}
}

// end releases laggard i from stall s unless something already has.
func (st *esState) end(i int, s *stall) {
	if st.stalls[i].CompareAndSwap(s, nil) {
		close(s.release)
	}
}

// stall blocks laggard i until esStallEvents more events than seq have
// been published, stalling is switched off, or esStallMax has passed.
func (st *esState) stall(i int, seq int64) {
	s := &stall{until: seq + esStallEvents, release: make(chan struct{})}
	st.stalls[i].Store(s)
	// Stalling may have been switched off, or the events published, before
	// the store above; stopStalls and add only see the stall after it.
	if !st.stalling.Load() || st.published.Load() >= s.until {
		st.end(i, s)
	}
	t := time.NewTimer(esStallMax)
	defer t.Stop()
	select {
	case <-s.release:
	case <-t.C:
		st.end(i, s)
	}
}

// stopStalls switches stalling off and releases every stalled laggard.
func (st *esState) stopStalls() {
	st.stalling.Store(false)
	for i := range st.stalls {
		if s := st.stalls[i].Load(); s != nil {
			st.end(i, s)
		}
	}
}

// newESEnv sets up an engine and its subscribers. Subscriber k records
// reception times in recvs[k], reused from set-up to set-up: allocating
// them each time took about a third of a set-up, in zeroing and
// collection.
func newESEnv(o *opts, i int, base time.Time, st *esState, recvs [][]int64) (*esEnv, error) {
	e := &esEnv{dir: filepath.Join(o.work, fmt.Sprintf("es-journal-%d", i))}
	_ = os.RemoveAll(e.dir) // left by a run that was killed
	// The journal defaults, as the engine daemon runs without flags.
	js, err := engine.OpenJournal(e.dir, journal.Options{})
	if err != nil {
		return e, fmt.Errorf("open journal: %w", err)
	}
	e.eng = engine.New(engine.WithJournalSet(js))
	for k := 0; k < esSubscribers; k++ {
		es := &esSub{laggard: k < esLaggards, recv: recvs[k][:0]}
		// Laggards stall out of phase with each other, at fixed offsets from
		// the first event they see while stalling is on: how their
		// catch-ups overlap moves the tails, so it is not left to chance.
		offset := int64(time.Duration(k+1) * esStallEvery / (esLaggards + 1))
		var nextStall, target, counted int64
		warm, warmed := make(chan struct{}), false
		hook := func(ev sseEvent) {
			for int64(len(es.recv)) <= ev.seq {
				es.recv = append(es.recv, 0)
			}
			es.recv[ev.seq] = ev.at
			if ev.seq >= esWarmup && !warmed {
				warmed = true
				close(warm)
			}
			// At or past the target, not only at it: a stream that skipped
			// the target event (a check failure) must not hang the stretch.
			if t := st.target.Load(); t > 0 && ev.seq >= t && counted != t {
				counted = t
				if st.arrived.Add(1) == esSubscribers {
					st.reached <- struct{}{}
				}
			}
			if !es.laggard || !st.stalling.Load() {
				return
			}
			if nextStall == 0 {
				nextStall = ev.at + offset
			}
			if target > 0 && ev.seq >= target {
				es.caught = append(es.caught, ev.at)
				target = 0
			}
			if ev.at >= nextStall {
				if target > 0 {
					es.caught = append(es.caught, -1) // never caught up before this stall
					target = 0
				}
				st.stall(k, ev.seq)
				resume := int64(time.Since(base))
				if newest := st.published.Load(); newest > ev.seq {
					es.resumes = append(es.resumes, resume)
					target = newest
				}
				nextStall = resume + int64(esReadFor)
			}
		}
		tee := 0
		if k == esSubscribers-1 {
			tee = esTeeBytes
		}
		s, err := attach(e.eng, base, tee, hook)
		if err != nil {
			return e, err
		}
		es.s = s
		es.warm = warm
		e.subs = append(e.subs, es)
	}
	// The set-up ends when the streams are live end to end: a warm-up
	// batch, smaller than a stream's channel so nothing is dropped, has
	// reached every subscriber.
	st.published.Store(0)
	for n := 0; n < esWarmup; n++ {
		e.eng.PublishBench(engine.Event{Strategy: "warmup", Type: engine.EventCheckExecuted, Time: time.Now()})
		st.add()
	}
	for _, es := range e.subs {
		select {
		case <-es.warm:
		case <-time.After(10 * time.Second):
			return e, fmt.Errorf("warm-up events did not reach every subscriber within 10s: at %v", positions(e.subs))
		}
	}
	return e, nil
}

// esBurst is one paced burst: when it was due, when it started, and the
// sequence number of its final event.
type esBurst struct {
	due, start, last int64
}

// publisher paces bursts and numbers runs of bursts.
type publisher struct {
	eng   *engine.Engine
	st    *esState
	rng   *rand.Rand
	base  time.Time
	run   int
	name  string // of the current run
	inRun int
	// terminals tracks the goroutines waiting for terminal events to be
	// durable.
	terminals sync.WaitGroup
}

func (p *publisher) publish(ev engine.Event, rec *recorder, name string) {
	if rec != nil {
		t0 := rec.now()
		p.eng.PublishBench(ev)
		rec.add(span{name: name, start: t0, end: rec.now(), parent: -1})
	} else {
		p.eng.PublishBench(ev)
	}
	p.st.add()
}

// endRun publishes the current run's terminal event. PublishBench returns
// for a terminal event only once the journal has appended and fsynced it;
// in the engine only the finishing run's own loop waits for that, so the
// wait happens on a goroutine of its own, and the publisher goes on once
// the event is stamped and fanned out.
func (p *publisher) endRun(rec *recorder, at time.Time) {
	name := p.name
	p.terminals.Add(1)
	go func() {
		defer p.terminals.Done()
		if rec == nil {
			p.eng.PublishBench(engine.Event{Strategy: name, Type: engine.EventCompleted, Time: at})
			return
		}
		t0 := rec.now()
		p.eng.PublishBench(engine.Event{Strategy: name, Type: engine.EventCompleted, Time: at})
		rec.add(span{name: "journal.durable", start: t0, end: rec.now(), parent: -1})
	}()
	for {
		if ev := p.eng.RecentEvents(1); len(ev) == 1 && ev[0].Strategy == name && ev[0].Type == engine.EventCompleted {
			break
		}
		runtime.Gosched()
	}
	p.st.add()
	p.run++
	p.name = fmt.Sprintf("stream-%d", p.run)
	p.inRun = 0
}

// burst publishes n check events due at due, and after every esRunBursts
// bursts the run's terminal event.
func (p *publisher) burst(n int, due time.Time, rec *recorder) {
	for j := 0; j < n; j++ {
		p.publish(engine.Event{
			Strategy: p.name, Type: engine.EventCheckExecuted,
			State: "canary", Check: "latency", Outcome: j % 2, Time: due,
		}, rec, "engine.publish")
	}
	if p.inRun++; p.inRun == esRunBursts {
		p.endRun(rec, due)
	}
}

// paced publishes bursts due every esBurstEvery for dur and returns them.
func (p *publisher) paced(dur time.Duration, rec *recorder) []esBurst {
	start := time.Now()
	var out []esBurst
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * esBurstEvery)
		if due.Sub(start) >= dur {
			return out
		}
		time.Sleep(time.Until(due))
		b := esBurst{due: int64(due.Sub(p.base)), start: int64(time.Since(p.base))}
		p.burst(esBurstMin+p.rng.Intn(esBurstMax-esBurstMin+1), due, rec)
		b.last = p.st.published.Load()
		out = append(out, b)
	}
}

// unpaced publishes bursts for dur, each once every subscriber holds the
// final event of the one before, and returns how many events it
// published.
func (p *publisher) unpaced(dur time.Duration, subs []*esSub) (int64, error) {
	start := time.Now()
	p0 := p.st.published.Load()
	limit := time.NewTimer(dur + esDrainLimit)
	defer limit.Stop()
	for time.Since(start) < dur {
		n := esFastMin + p.rng.Intn(esFastMax-esFastMin+1)
		last := p.st.published.Load() + int64(n)
		if p.inRun+1 == esRunBursts {
			last++
		}
		p.st.arrived.Store(0)
		p.st.target.Store(last)
		p.burst(n, time.Now(), nil)
		select {
		case <-p.st.reached:
		case <-limit.C:
			return 0, fmt.Errorf("subscribers did not all reach seq %d: at %v", last, positions(subs))
		}
	}
	return p.st.published.Load() - p0, nil
}

// drain ends the last run and waits until every subscriber holds every
// event.
func (p *publisher) drain(subs []*esSub) error {
	if p.inRun > 0 {
		p.endRun(nil, time.Now())
	}
	p.terminals.Wait()
	return p.settle(subs)
}

// settle waits until every subscriber holds every event published so far.
// The bus drops on full channels and a stream only notices the gap when a
// later event arrives, so it keeps publishing a tick until all streams
// have caught up.
func (p *publisher) settle(subs []*esSub) error {
	deadline := time.Now().Add(esDrainLimit)
	for {
		want := p.st.published.Load()
		behind := 0
		for _, s := range subs {
			if s.s.lastSeq() < want {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d streams still behind seq %d after %v: at %v", behind, want, esDrainLimit, positions(subs))
		}
		p.publish(engine.Event{Strategy: "stream-drain", Type: engine.EventCheckExecuted, Time: time.Now()}, nil, "")
		time.Sleep(20 * time.Millisecond)
	}
}

// positions is the newest sequence number each subscriber holds.
func positions(subs []*esSub) []int64 {
	var at []int64
	for _, s := range subs {
		at = append(at, s.s.lastSeq())
	}
	return at
}

// esHalf gathers the windows of the untraced or the traced half.
type esHalf struct {
	fig       perWindow
	pooled    []float64 // per burst and subscriber
	lateness  []float64
	bursts    int
	catchups  int
	cost      delta
	published int64
}

func runEventstream(o *opts) (*outcome, error) {
	base := time.Now()
	rng := rand.New(rand.NewSource(o.seed))
	out := newOutcome()
	st := &esState{reached: make(chan struct{}, 1)}
	recvs := make([][]int64, esSubscribers)
	for k := range recvs {
		recvs[k] = make([]int64, 0, 1<<17)
	}
	var env *esEnv
	for i := 0; i < esSetups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = newESEnv(o, i, base, st, recvs)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("eventstream set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()

	pub := &publisher{eng: env.eng, st: st, rng: rng, base: base, name: "stream-0"}
	segments := []*recorder{nil}
	if o.trace {
		segments = []*recorder{nil, newRecorder(base)}
	}
	measured := float64(o.dur) * (1 - probeShare)
	window := time.Duration(measured * (1 - esFastShare) / esWindows)
	fast := time.Duration(measured * esFastShare / esFastWindows)
	slice := time.Duration(float64(o.dur) * probeShare / (esWindows + esFastWindows + 1))

	// figures returns one paced window's bursts' worst fan-out latency,
	// every non-laggard's latency, the laggards' catch-ups and the
	// generator's lateness, in ms.
	figures := func(bursts []esBurst, from, to int64) (worst, pooled, catchup, lateness []float64) {
		for _, b := range bursts {
			var w int64
			for _, s := range env.subs {
				if s.laggard || b.last >= int64(len(s.recv)) {
					continue
				}
				d := s.recv[b.last] - b.due
				pooled = append(pooled, ms(time.Duration(d)))
				w = max(w, d)
			}
			worst = append(worst, ms(time.Duration(w)))
			lateness = append(lateness, ms(time.Duration(b.start-b.due)))
		}
		for _, s := range env.subs {
			for i, r := range s.resumes {
				if r >= from && r < to && i < len(s.caught) && s.caught[i] >= 0 {
					catchup = append(catchup, ms(time.Duration(s.caught[i]-r)))
				}
			}
		}
		return worst, pooled, catchup, lateness
	}
	type pacedWindow struct {
		bursts   []esBurst
		from, to int64
	}
	var halves []*esHalf
	var paced [][]pacedWindow
	// All paced windows come first, then all unpaced ones, so the traced
	// half's windows follow the untraced half's of the same kind.
	st.stalling.Store(true)
	if _, err := probe.measure(slice); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	for _, rec := range segments {
		h := &esHalf{fig: perWindow{}}
		halves = append(halves, h)
		var pw []pacedWindow
		for w := 0; w < esWindows/len(segments); w++ {
			u0 := snapshot()
			p0 := st.published.Load()
			bursts := pub.paced(window, rec)
			c := u0.to(snapshot())
			if _, err := probe.measure(slice); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			n := st.published.Load() - p0
			h.cost.add(c)
			h.published += n
			h.bursts += len(bursts)
			h.fig.add("cpu_us_per_op", us(c.cpu)/float64(n))
			pw = append(pw, pacedWindow{bursts, int64(u0.wall.Sub(base)), int64(u0.wall.Add(c.wall).Sub(base))})
		}
		paced = append(paced, pw)
	}
	st.stopStalls()
	// An unpaced burst waits for every stream. A laggard's stream that
	// still drops the burst's last events would only notice when a later
	// event arrives, and none would: so the stretch starts with every
	// stream holding every event, and its bursts fit in an empty channel.
	if err := pub.settle(env.subs); err != nil {
		out.fail(1, "settle: %v", err)
	}
	for _, h := range halves {
		for w := 0; w < esFastWindows/len(segments); w++ {
			u0 := snapshot()
			n, err := pub.unpaced(fast, env.subs)
			if err != nil {
				out.fail(1, "unpaced: %v", err)
				break
			}
			c := u0.to(snapshot())
			if _, err := probe.measure(slice); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			h.fig.add("ops_per_s", float64(n)/c.wall.Seconds())
		}
	}
	if err := pub.drain(env.subs); err != nil {
		out.fail(1, "drain: %v", err)
	}
	published := st.published.Load()
	journalBytes := dirSize(env.dir)
	env.close()
	closed = true

	var frames, writes, flushes, bytes float64
	for k, s := range env.subs {
		failed, notes := s.s.checkSeqs(published)
		if failed > 0 {
			out.fail(failed, "subscriber %d: %v", k, notes)
		}
		frames += float64(s.s.frames)
		writes += float64(s.s.w.writes.Load())
		flushes += float64(s.s.w.flushes.Load())
		bytes += float64(s.s.w.bytes.Load())
	}
	out.attempted = published

	// The readers have stopped, so every reception time is in place.
	for i, h := range halves {
		var group []float64
		for k, w := range paced[i] {
			worst, pooled, catchup, lateness := figures(w.bursts, w.from, w.to)
			h.fig.add("p50_ms", median(worst))
			// A p99 needs ten bursts beyond it, so it is taken over each
			// pair of windows (about 1080 bursts).
			if group = append(group, worst...); k%esP99Windows == esP99Windows-1 {
				h.fig.add("p99_ms", quantile(sortedCopy(group), 0.99))
				group = group[:0]
			}
			if len(catchup) > 0 {
				h.fig.add("catchup_ms", median(catchup))
			}
			h.catchups += len(catchup)
			h.pooled = append(h.pooled, pooled...)
			h.lateness = append(h.lateness, lateness...)
		}
	}
	h := halves[0]
	sortedPooled := sortedCopy(h.pooled)
	sortedLate := sortedCopy(h.lateness)
	out.e2e = h.fig.medians()
	out.windows = h.fig
	out.slow = probe.slowness()
	// A catch-up works off a backlog fixed in events within a few ms; the
	// probe's scale made it vary more from run to run, not less
	// (README.md).
	out.asMeasured = []string{"catchup_ms"}
	out.samples["p999_ms"] = quantile(sortedPooled, 0.999)
	out.samples["p999_beyond"] = beyond(len(sortedPooled), 0.999)
	out.samples["bursts"] = h.bursts
	out.samples["deliveries"] = len(sortedPooled)
	out.samples["catchups"] = h.catchups
	out.samples["events"] = published
	out.samples["lateness_p50_ms"] = quantile(sortedLate, 0.5)
	out.samples["lateness_p99_ms"] = quantile(sortedLate, 0.99)
	out.samples["lateness_max_ms"] = quantile(sortedLate, 1)
	out.samples["probe"] = probe.slices()

	if o.trace {
		t := halves[1]
		out.overhead(median(h.fig["p50_ms"]), median(t.fig["p50_ms"]), median(h.fig["cpu_us_per_op"]), median(t.fig["cpu_us_per_op"]))
		out.spans = segments[1].snapshot()
		sp := out.spans
		// Every subscriber received every event once (checked above); the
		// readers' own allocations are taken out.
		reader := readerAllocs(env.subs[esSubscribers-1].s.w.tee)
		out.layer["engine.publish_us"] = median(durations(sp, "engine.publish")) / 1e3
		out.layer["journal.durable_ms"] = median(durations(sp, "journal.durable")) / 1e6
		out.layer["httpx.flushes_per_frame"] = ratio(flushes, frames)
		out.layer["httpx.writes_per_frame"] = ratio(writes, frames)
		out.layer["httpx.bytes_per_frame"] = ratio(bytes, frames)
		out.layer["engine.allocs_per_event"] = ratio(t.cost.allocs, float64(t.published)) - reader*esSubscribers
		out.layer["journal.bytes_per_event"] = ratio(float64(journalBytes), float64(published))
		out.layer["engine.frames_per_event"] = ratio(frames, float64(published)*esSubscribers)
		out.layer["loadgen.lateness_p50_ms"] = median(t.lateness)
	}
	return out, nil
}
