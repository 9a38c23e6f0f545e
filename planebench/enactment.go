package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/journal"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/target"
)

// The enactment workload: enRuns concurrent runs, each with its own
// enReplicas-proxy fleet over loopback HTTP, wired as in production
// (TargetConfigurator → ProxyTarget → FleetConfigurator, quorum = all,
// journal on disk). One goroutine promotes the runs round-robin,
// waits until every replica of the promoted run serves the new
// generation, and dwells. Runs are enacted in rounds: each round sets up a
// fresh engine, journal and fleets, and ends when every run is done.
const (
	enRuns     = 8
	enPhases   = 150
	enReplicas = 3
	// enDwell is slept after each transition; the host's ~1ms timer turns
	// it into about a millisecond, during which the runs' checks fire.
	enDwell    = 100 * time.Microsecond
	enAckLimit = 10 * time.Second
)

// enReplica is one proxy replica and the admin acks it has served.
type enReplica struct {
	p   *proxy.Proxy
	srv *httpx.Server
	// gen and ackAt are the newest generation an admin PUT installed and
	// when; puts counts PUTs. Guarded by the fleet's mu.
	gen   int64
	ackAt int64
	puts  int
}

type enFleet struct {
	replicas []*enReplica
	mu       sync.Mutex
	notify   chan struct{}
}

// state returns the replicas' generations and ack times.
func (f *enFleet) state() (gens []int64, acks []int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.replicas {
		gens = append(gens, r.gen)
		acks = append(acks, r.ackAt)
	}
	return gens, acks
}

// waitAbove blocks until every replica serves a generation above g and
// returns the ack times, or fails after enAckLimit.
func (f *enFleet) waitAbove(g int64) ([]int64, error) {
	deadline := time.NewTimer(enAckLimit)
	defer deadline.Stop()
	for {
		gens, acks := f.state()
		done := true
		for _, x := range gens {
			if x <= g {
				done = false
			}
		}
		if done {
			return acks, nil
		}
		select {
		case <-f.notify:
		case <-deadline.C:
			return nil, fmt.Errorf("replicas at generations %v, want all > %d after %v", gens, g, enAckLimit)
		}
	}
}

// handler serves rep, noting every applied admin PUT and timing it when
// tracing.
func (f *enFleet) handler(rep *enReplica, base time.Time, rec *atomic.Pointer[recorder]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || r.URL.Path != "/_bifrost/config" {
			rep.p.ServeHTTP(w, r)
			return
		}
		t0 := int64(time.Since(base))
		rep.p.ServeHTTP(w, r)
		t1 := int64(time.Since(base))
		g := rep.p.Config().Generation
		f.mu.Lock()
		rep.puts++
		if g > rep.gen {
			rep.gen, rep.ackAt = g, t1
		}
		f.mu.Unlock()
		select {
		case f.notify <- struct{}{}:
		default:
		}
		if tr := rec.Load(); tr != nil {
			tr.add(span{name: "proxy.admin_put", start: t0, end: t1, parent: -1})
		}
	})
}

func (f *enFleet) close() {
	for _, r := range f.replicas {
		if r.srv != nil {
			shutdown(r.srv)
		}
		if r.p != nil {
			r.p.Close()
		}
	}
}

// enStrategy renders one run's strategy: enPhases long phases with seeded
// weights, each with a 20ms metric check against the benchmark's metrics
// server, then a final "done" phase.
func enStrategy(name string, proxies []string, provider string, rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\ndeployment:\n  services:\n    - service: shop\n      proxies:\n", name)
	for _, p := range proxies {
		fmt.Fprintf(&b, "        - %s\n", p)
	}
	b.WriteString("      versions:\n        - name: stable\n          endpoint: 127.0.0.1:9001\n" +
		"        - name: canary\n          endpoint: 127.0.0.1:9002\n")
	fmt.Fprintf(&b, "providers:\n  bench: %s\nstrategy:\n  phases:\n", provider)
	for i := 0; i < enPhases; i++ {
		next := fmt.Sprintf("p%d", i+1)
		if i == enPhases-1 {
			next = "done"
		}
		c := 1 + rng.Intn(99)
		fmt.Fprintf(&b, `    - phase: p%d
      duration: 1h
      routes:
        - route:
            service: shop
            weights: {stable: %d, canary: %d}
      checks:
        - metric:
            name: errors
            provider: bench
            query: bench_errors{service="shop"}
            intervalTime: 20ms
            intervalLimit: 1000000
            validator: "<1"
      on:
        success: %s
`, i, 100-c, c, next)
	}
	b.WriteString("    - phase: done\n      routes:\n        - route:\n            service: shop\n            weights: {canary: 100}\n")
	return b.String()
}

// enRound is one round's engine, fleets, runs and watcher.
type enRound struct {
	dir     string
	eng     *engine.Engine
	fleets  []*enFleet
	runs    []*engine.Run
	watcher *subscriber
	// applied maps run name and generation to when the watcher received
	// that routing_applied event; events counts frames it received.
	mu      sync.Mutex
	applied map[string]int64
	events  int64
	stopped bool
}

// stopEngine shuts the engine down and then the watcher, which first
// drains what the engine had already sent it.
func (r *enRound) stopEngine() {
	if r.stopped {
		return
	}
	r.stopped = true
	if r.eng != nil {
		r.eng.Shutdown()
	}
	if r.watcher != nil {
		r.watcher.close()
	}
}

func (r *enRound) close() {
	r.stopEngine()
	for _, f := range r.fleets {
		f.close()
	}
	_ = os.RemoveAll(r.dir) // scratch journal of a finished round
}

func appliedKey(run string, gen int64) string { return fmt.Sprintf("%s/%d", run, gen) }

// setUpRound opens a journal, starts an engine and fleets, compiles and
// enacts the runs, and waits for the first generation on every replica.
func setUpRound(o *opts, round int, base time.Time, provider string, rec *atomic.Pointer[recorder],
	rng *rand.Rand) (*enRound, error) {
	r := &enRound{dir: filepath.Join(o.work, fmt.Sprintf("enact-journal-%d", round)), applied: make(map[string]int64)}
	_ = os.RemoveAll(r.dir) // left by a run that was killed
	// The journal defaults, as the engine daemon runs without flags.
	js, err := engine.OpenJournal(r.dir, journal.Options{})
	if err != nil {
		return r, fmt.Errorf("open journal: %w", err)
	}
	fleet := engine.NewFleetConfigurator(engine.FleetQuorum(0))
	targets := target.NewRegistry()
	if err := targets.Register(target.KindProxy, engine.NewProxyTarget(fleet)); err != nil {
		return r, err
	}
	r.eng = engine.New(engine.WithConfigurator(engine.NewTargetConfigurator(targets)), engine.WithJournalSet(js))
	r.watcher, err = attach(r.eng, base, 0, func(ev sseEvent) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.events++
		if ev.name != string(engine.EventRoutingApplied) {
			return
		}
		var e engine.Event
		if json.Unmarshal(ev.data, &e) == nil {
			r.applied[appliedKey(e.Strategy, e.Generation)] = ev.at
		}
	})
	if err != nil {
		return r, fmt.Errorf("attach watcher: %w", err)
	}
	var sources []string
	for i := 0; i < enRuns; i++ {
		f := &enFleet{notify: make(chan struct{}, 1)}
		r.fleets = append(r.fleets, f)
		var urls []string
		for j := 0; j < enReplicas; j++ {
			p, err := proxy.New("shop", proxy.Config{})
			if err != nil {
				return r, err
			}
			rep := &enReplica{p: p}
			f.replicas = append(f.replicas, rep)
			srv, err := httpx.NewServer("127.0.0.1:0", f.handler(rep, base, rec))
			if err != nil {
				return r, err
			}
			srv.Start()
			rep.srv = srv
			urls = append(urls, srv.URL())
		}
		sources = append(sources, enStrategy(fmt.Sprintf("enact-%d-%d", round, i), urls, provider, rng))
	}
	tr := rec.Load()
	for i, src := range sources {
		var s *core.Strategy
		tr.timed("dsl.compile", func() { s, err = dsl.Compile(src) })
		if err != nil {
			return r, fmt.Errorf("compile run %d: %w", i, err)
		}
		var run *engine.Run
		tr.timed("engine.enact", func() { run, err = r.eng.Enact(s) })
		if err != nil {
			return r, fmt.Errorf("enact run %d: %w", i, err)
		}
		r.runs = append(r.runs, run)
	}
	for i, f := range r.fleets {
		if _, err := f.waitAbove(0); err != nil {
			return r, fmt.Errorf("run %d first generation: %w", i, err)
		}
	}
	return r, nil
}

// enSample is one promote as drive measured it, in ns since base.
type enSample struct {
	t0, latency, first, spread int64
	run                        string
	gen                        int64
}

// drive promotes every run through all its phases and checks the result.
// It also returns how long it slept in dwells.
func (r *enRound) drive(base time.Time, rec *recorder, out *outcome) ([]enSample, time.Duration, error) {
	var slept time.Duration
	samples := make([]enSample, 0, enRuns*enPhases)
	finals := make([]int64, len(r.runs))
	for step := 0; step < enPhases; step++ {
		for i, run := range r.runs {
			f := r.fleets[i]
			gens, _ := f.state()
			g0 := gens[0]
			for _, g := range gens {
				g0 = max(g0, g)
			}
			t0 := int64(time.Since(base))
			out.attempted++
			err := run.Promote("")
			if rec != nil {
				rec.add(span{name: "engine.promote", start: t0, end: int64(time.Since(base)), parent: -1})
			}
			if err != nil {
				out.fail(1, "promote %s step %d: %v", run.Strategy().Name, step, err)
				continue
			}
			acks, err := f.waitAbove(g0)
			if err != nil {
				out.fail(1, "promote %s step %d: %v", run.Strategy().Name, step, err)
				continue
			}
			first, last := acks[0], acks[0]
			for _, a := range acks {
				first, last = min(first, a), max(last, a)
			}
			gens, _ = f.state()
			finals[i] = gens[0]
			samples = append(samples, enSample{
				t0: t0, latency: last - t0, first: first - t0, spread: last - first,
				run: run.Strategy().Name, gen: gens[0],
			})
			t1 := time.Now()
			time.Sleep(enDwell)
			slept += time.Since(t1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, run := range r.runs {
		if err := run.Wait(ctx); err != nil {
			return samples, slept, fmt.Errorf("run %s did not finish: %w", run.Strategy().Name, err)
		}
		st := run.Status()
		if st.State != engine.RunCompleted || st.Current != "done" {
			out.fail(1, "run %s ended %s in %q", st.Strategy, st.State, st.Current)
		}
		if len(st.Path) != enPhases {
			out.fail(1, "run %s path has %d entries, want %d", st.Strategy, len(st.Path), enPhases)
		}
		for j, rep := range r.fleets[i].replicas {
			if g := rep.p.Config().Generation; g != finals[i] {
				out.fail(1, "run %s replica %d ends at generation %d, want the final %d", st.Strategy, j, g, finals[i])
			}
		}
	}
	return samples, slept, nil
}

// catchups returns, per sample, the time from its promote until the
// watcher held the routing_applied event of the new generation. Call
// after the engine has stopped and the watcher has drained.
func (r *enRound) catchups(samples []enSample, out *outcome) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cs []float64
	for _, x := range samples {
		at, ok := r.applied[appliedKey(x.run, x.gen)]
		if !ok {
			out.fail(1, "watcher never saw routing_applied for %s generation %d", x.run, x.gen)
			continue
		}
		cs = append(cs, ms(time.Duration(at-x.t0)))
	}
	return cs
}

// enHalf gathers the rounds of the untraced or the traced half: each
// round's figures, and the counters the per-layer metrics divide.
type enHalf struct {
	fig              perWindow
	lat              []float64 // pooled, for the tails
	perRound         [][]enSample
	cost             delta
	queries, events  int64
	puts             int
	journal, lastSeq int64
}

func runEnactment(o *opts) (*outcome, error) {
	base := time.Now()
	rng := rand.New(rand.NewSource(o.seed))
	out := newOutcome()

	// The metrics provider the runs' checks query.
	store := metrics.NewStore()
	store.Append("bench_errors", metrics.Labels{"service": "shop"}, 0, time.Now())
	var rec atomic.Pointer[recorder]
	msh := metrics.NewServer(store).Handler()
	var queries atomic.Int64
	msrv, err := httpx.NewServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries.Add(1)
		tr := rec.Load()
		if tr == nil {
			msh.ServeHTTP(w, r)
			return
		}
		t0 := tr.now()
		msh.ServeHTTP(w, r)
		tr.add(span{name: "metrics.query", start: t0, end: tr.now(), parent: -1})
	}))
	if err != nil {
		return nil, err
	}
	msrv.Start()
	defer shutdown(msrv)
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	// A round takes about two seconds, so a run of 20s has about ten.
	slice := time.Duration(float64(o.dur) * probeShare / 10)

	segments := []*recorder{nil}
	if o.trace {
		segments = []*recorder{nil, newRecorder(base)}
	}
	var halves []*enHalf
	round := 0
	for si, tr := range segments {
		h := &enHalf{fig: perWindow{}}
		halves = append(halves, h)
		rec.Store(tr)
		deadline := time.Now().Add(o.dur / time.Duration(len(segments)))
		if _, err := probe.measure(slice); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		for time.Now().Before(deadline) || len(h.perRound) == 0 {
			t0 := time.Now()
			r, err := setUpRound(o, round, base, msrv.URL(), &rec, rng)
			round++
			if err != nil {
				r.close()
				return nil, fmt.Errorf("enactment set-up: %w", err)
			}
			if si == 0 {
				out.setups = append(out.setups, time.Since(t0).Seconds())
			}
			q0 := queries.Load()
			u0 := snapshot()
			samples, slept, err := r.drive(base, tr, out)
			cost := u0.to(snapshot())
			h.cost.add(cost)
			h.queries += queries.Load() - q0
			if err != nil {
				r.close()
				return nil, err
			}
			h.perRound = append(h.perRound, samples)
			h.journal += dirSize(r.dir)
			for _, f := range r.fleets {
				f.mu.Lock()
				for _, rep := range f.replicas {
					h.puts += rep.puts
				}
				f.mu.Unlock()
			}
			var newest int64
			if ev := r.eng.RecentEvents(1); len(ev) == 1 {
				newest = ev[0].Seq
			}
			r.stopEngine()
			catchup := r.catchups(samples, out)
			r.mu.Lock()
			h.events += r.events
			r.mu.Unlock()
			h.lastSeq += newest
			failed, notes := r.watcher.checkSeqs(newest)
			if failed > 0 {
				out.fail(failed, "watcher: %v", notes)
			}
			r.close()
			if _, err := probe.measure(slice); err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}

			// The rate leaves out the dwells, which are the timer's.
			var lat []float64
			for _, x := range samples {
				lat = append(lat, ms(time.Duration(x.latency)))
			}
			n := float64(len(lat))
			h.lat = append(h.lat, lat...)
			sorted := sortedCopy(lat)
			h.fig.add("p50_ms", quantile(sorted, 0.5))
			h.fig.add("p99_ms", quantile(sorted, 0.99))
			h.fig.add("ops_per_s", n/(cost.wall-slept).Seconds())
			h.fig.add("cpu_us_per_op", us(cost.cpu)/n)
			if len(catchup) > 0 {
				h.fig.add("catchup_ms", median(catchup))
			}
		}
	}

	h := halves[0]
	sorted := sortedCopy(h.lat)
	out.e2e = h.fig.medians()
	out.windows = h.fig
	out.slow = probe.slowness()
	out.samples["p999_ms"] = quantile(sorted, 0.999)
	out.samples["p999_beyond"] = beyond(len(sorted), 0.999)
	out.samples["transitions"] = len(sorted)
	out.samples["rounds"] = len(h.perRound)
	out.samples["probe"] = probe.slices()

	if o.trace {
		t := halves[1]
		n := float64(len(t.lat))
		out.overhead(median(h.fig["p50_ms"]), median(t.fig["p50_ms"]), median(h.fig["cpu_us_per_op"]), median(t.fig["cpu_us_per_op"]))
		var first, spread []float64
		for _, samples := range t.perRound {
			for _, x := range samples {
				first = append(first, ms(time.Duration(x.first)))
				spread = append(spread, ms(time.Duration(x.spread)))
			}
		}
		out.spans = segments[1].snapshot()
		sp := out.spans
		out.layer["engine.promote_us"] = median(durations(sp, "engine.promote")) / 1e3
		out.layer["fleet.first_ack_ms"] = median(first)
		out.layer["fleet.ack_spread_ms"] = median(spread)
		// Each round's first generation is pushed before any promote.
		out.layer["fleet.pushes_per_transition"] = ratio(float64(t.puts), (n+float64(len(t.perRound)*enRuns))*enReplicas)
		out.layer["proxy.admin_put_us"] = median(durations(sp, "proxy.admin_put")) / 1e3
		out.layer["metrics.query_us"] = median(durations(sp, "metrics.query")) / 1e3
		out.layer["metrics.queries_per_transition"] = ratio(float64(t.queries), n)
		out.layer["journal.bytes_per_transition"] = ratio(float64(t.journal), n)
		out.layer["journal.bytes_per_event"] = ratio(float64(t.journal), float64(t.lastSeq))
		out.layer["engine.events_per_transition"] = ratio(float64(t.events), n)
		out.layer["engine.frames_per_event"] = ratio(float64(t.events), float64(t.lastSeq))
		out.layer["dsl.compile_ms"] = median(durations(sp, "dsl.compile")) / 1e6
		out.layer["engine.enact_ms"] = median(durations(sp, "engine.enact")) / 1e6
	}
	return out, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
