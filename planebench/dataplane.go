package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/uuid"
)

// The dataplane workload: a closed loop of nproc keep-alive clients
// through a live proxy.Proxy to two stub backends, while a goroutine swaps
// the routing config every dpSwapEvery through the paper's four phase
// shapes. The run is cut into dpWindows windows with a host probe slice
// (probe.go) before each and after the last; the probe is the same
// request sent straight to a stub backend, the baseline for the proxy's
// overhead.
const (
	dpUsers       = 1024
	dpSwapEvery   = 250 * time.Millisecond
	dpWindows     = 10
	dpSetups      = 9
	dpWarmup      = 1500 // requests per client during set-up
	reqHeader     = "X-Request-Id"
	versionHeader = "X-Bifrost-Version"
	// backendHeader is set by the stub backend that answered; the proxy
	// passes it through, so the client can check that the request went
	// where the proxy's X-Bifrost-Version says.
	backendHeader = "X-Backend-Version"
)

// dpShape is one phase shape of the paper's strategies, as a proxy config
// without its generation.
func dpShape(i int, stable, canary string) proxy.Config {
	cfg := proxy.Config{Service: "shop"}
	backends := func(ws, wc float64) []proxy.Backend {
		return []proxy.Backend{
			{Version: "stable", URL: stable, Weight: ws},
			{Version: "canary", URL: canary, Weight: wc},
		}
	}
	switch i % 4 {
	case 0: // canary release
		cfg.Backends = backends(95, 5)
	case 1: // dark launch: everything on stable, 10% duplicated to canary
		cfg.Backends = backends(100, 0)
		cfg.Shadows = []proxy.Shadow{{Source: "stable", Target: "canary", Percent: 10}}
	case 2: // sticky A/B test
		cfg.Backends = backends(50, 50)
		cfg.Sticky = true
	case 3: // gradual rollout
		cfg.Backends = backends(20, 80)
	}
	return cfg
}

// dpEnv is one set-up of the dataplane: backends, proxy, the proxy's
// listener, and the generation bookkeeping the response checks read.
type dpEnv struct {
	backends [2]*httpx.Server
	urls     [2]string
	p        *proxy.Proxy
	front    *httpx.Server
	rec      atomic.Pointer[recorder]
	// shape0 makes generation g run shape (g-1+shape0)%4.
	shape0 int
	// next is stored before SetConfig and cur after it returns, so a
	// request that reads cur == g before sending and next == g after its
	// response ran entirely on generation g's snapshot.
	cur, next atomic.Int64
	users     []string
	reqSeq    atomic.Uint64
}

func (e *dpEnv) config(gen int64) proxy.Config {
	cfg := dpShape(int(gen-1)+e.shape0, e.urls[0], e.urls[1])
	cfg.Generation = gen
	return cfg
}

// servesVersion reports whether version carries traffic in generation gen.
func (e *dpEnv) servesVersion(gen int64, version string) bool {
	for _, b := range e.config(gen).Backends {
		if b.Version == version && b.Weight > 0 {
			return true
		}
	}
	return false
}

func (e *dpEnv) close() {
	shutdown(e.front)
	e.p.Close()
	for _, b := range e.backends {
		shutdown(b)
	}
}

func shutdown(s *httpx.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // teardown: an error only means connections were cut
}

func parseReq(h string) uint64 {
	n, _ := strconv.ParseUint(h, 10, 64) // absent or malformed: no link
	return n
}

// backend is a stub service version: it drains the request and answers
// with a small JSON document, naming itself in backendHeader.
func (e *dpEnv) backend(version string) http.Handler {
	body := stubBody(version)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := e.rec.Load()
		var t0 int64
		if rec != nil {
			t0 = rec.now()
		}
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(backendHeader, version)
		_, _ = w.Write(body)
		if rec != nil {
			rec.add(span{name: "upstream.serve", start: t0, end: rec.now(), parent: -1,
				req: parseReq(r.Header.Get(reqHeader)), tag: version})
		}
	})
}

// frontHandler serves the proxy, timing Proxy.ServeHTTP when tracing.
func (e *dpEnv) frontHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := e.rec.Load()
		if rec == nil {
			e.p.ServeHTTP(w, r)
			return
		}
		t0 := rec.now()
		e.p.ServeHTTP(w, r)
		rec.add(span{name: "proxy.serve", start: t0, end: rec.now(), parent: -1,
			req: parseReq(r.Header.Get(reqHeader)), tag: w.Header().Get(versionHeader)})
	})
}

func newDPEnv(seed int64) (*dpEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &dpEnv{shape0: rng.Intn(4)}
	e.users = make([]string, dpUsers)
	for i := range e.users {
		var u uuid.UUID
		rng.Read(u[:])
		u[6] = u[6]&0x0f | 0x40
		u[8] = u[8]&0x3f | 0x80
		e.users[i] = u.String()
	}
	for i, v := range []string{"stable", "canary"} {
		s, err := httpx.NewServer("127.0.0.1:0", e.backend(v))
		if err != nil {
			e.closePartial()
			return nil, err
		}
		s.Start()
		e.backends[i], e.urls[i] = s, s.URL()
	}
	p, err := proxy.New("shop", e.config(1), proxy.WithSeed(seed), proxy.WithRegistry(metrics.NewRegistry()))
	if err != nil {
		e.closePartial()
		return nil, err
	}
	e.p = p
	e.cur.Store(1)
	e.next.Store(1)
	front, err := httpx.NewServer("127.0.0.1:0", e.frontHandler())
	if err != nil {
		e.closePartial()
		return nil, err
	}
	front.Start()
	e.front = front
	return e, nil
}

func (e *dpEnv) closePartial() {
	if e.p != nil {
		e.p.Close()
	}
	for _, b := range e.backends {
		if b != nil {
			shutdown(b)
		}
	}
}

// dpRecord is one request as the client saw it.
type dpRecord struct {
	send, end int64 // ns since the run's base
	gLo, gHi  int64
	user      int32
	version   int8 // 0 stable, 1 canary, -1 other
	ok        bool
}

// dpClient is one closed-loop client: one keep-alive connection, one
// request at a time.
type dpClient struct {
	hc   *http.Client
	rng  *rand.Rand
	req  *http.Request
	recs []dpRecord
	errs []string
	nerr int
}

func newDPClient(seed int64) *dpClient {
	return &dpClient{
		hc:   keepAliveClient(),
		rng:  rand.New(rand.NewSource(seed)),
		recs: make([]dpRecord, 0, 1<<16),
	}
}

// checkResponse is the dataplane's per-request correctness check: a 2xx
// status, a version that carries traffic in one of the generations that
// were live while the request was in flight, and an answer from the
// backend of that version.
func checkResponse(e *dpEnv, status int, version, backend string, gLo, gHi int64) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d", status)
	}
	if backend != version {
		return fmt.Errorf("labelled %q but answered by backend %q", version, backend)
	}
	for g := gLo; g <= gHi; g++ {
		if e.servesVersion(g, version) {
			return nil
		}
	}
	return fmt.Errorf("version %q not served by generations %d..%d", version, gLo, gHi)
}

// do sends one request for a seeded user through the proxy and records
// it.
func (c *dpClient) do(e *dpEnv, base0 time.Time) {
	user := c.rng.Intn(len(e.users))
	id := e.reqSeq.Add(1)
	if c.req == nil {
		c.req, _ = http.NewRequest(http.MethodGet, e.front.URL()+"/api/cart", nil)
	}
	c.req.Header.Set("Cookie", proxy.CookieName+"="+e.users[user])
	c.req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	rec := dpRecord{user: int32(user), gLo: e.cur.Load()}
	rec.send = int64(time.Since(base0))
	resp, err := c.hc.Do(c.req)
	var status int
	var version, backend string
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status, version, backend = resp.StatusCode, resp.Header.Get(versionHeader), resp.Header.Get(backendHeader)
	}
	rec.end = int64(time.Since(base0))
	rec.gHi = e.next.Load()
	switch version {
	case "stable":
		rec.version = 0
	case "canary":
		rec.version = 1
	default:
		rec.version = -1
	}
	if err != nil {
		c.fail("request: %v", err)
	} else if cerr := checkResponse(e, status, version, backend, rec.gLo, rec.gHi); cerr != nil {
		c.fail("%v", cerr)
	} else {
		rec.ok = true
	}
	c.recs = append(c.recs, rec)
}

func (c *dpClient) fail(format string, args ...any) {
	c.nerr++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// swap is one config change: when SetConfig was called and when it
// returned, in ns since the run's base.
type swap struct{ pushed, live int64 }

// dpSegment is one window of the proxied loop.
type dpSegment struct {
	recs  []dpRecord // all clients' records, by client then time
	per   [][]dpRecord
	swaps []swap
	cost  delta
	// sticky is the number of sticky assignments at the end of each
	// sticky generation.
	sticky []float64
}

// runLoop drives every client through the proxy for dur, with the config
// swaps beside them.
func runLoop(e *dpEnv, clients []*dpClient, base0 time.Time, dur time.Duration) *dpSegment {
	seg := &dpSegment{}
	for _, c := range clients {
		c.recs = c.recs[:0]
	}
	u0 := snapshot()
	deadline := u0.wall.Add(dur)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(dpSwapEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			gen := e.cur.Load() + 1
			if e.config(gen - 1).Sticky {
				seg.sticky = append(seg.sticky, float64(len(e.p.Mappings())))
			}
			e.next.Store(gen)
			pushed := int64(time.Since(base0))
			rec := e.rec.Load()
			var err error
			rec.timed("proxy.setconfig", func() { err = e.p.SetConfig(e.config(gen)) })
			if err != nil {
				panic(fmt.Sprintf("SetConfig generation %d: %v", gen, err)) // this loop owns every generation
			}
			e.cur.Store(gen)
			seg.swaps = append(seg.swaps, swap{pushed: pushed, live: int64(time.Since(base0))})
		}
	}()
	var cw sync.WaitGroup
	for _, c := range clients {
		cw.Add(1)
		go func(c *dpClient) {
			defer cw.Done()
			for time.Now().Before(deadline) {
				c.do(e, base0)
			}
		}(c)
	}
	cw.Wait()
	seg.cost = u0.to(snapshot())
	close(stop)
	wg.Wait()
	for _, c := range clients {
		seg.per = append(seg.per, append([]dpRecord(nil), c.recs...))
		seg.recs = append(seg.recs, c.recs...)
	}
	return seg
}

// dpFigures are the end-to-end figures of one window, as measured.
type dpFigures struct {
	lat               []float64 // ms, of every request that passed its checks
	opsPerS, cpuPerOp float64
	catchup           []float64
	failed, attempted int
}

func (s *dpSegment) figures(e *dpEnv) dpFigures {
	var f dpFigures
	for _, r := range s.recs {
		f.attempted++
		if !r.ok {
			f.failed++
			continue
		}
		f.lat = append(f.lat, ms(time.Duration(r.end-r.send)))
	}
	f.failed += stickyViolations(e, s.recs)
	n := float64(len(f.lat))
	f.opsPerS, f.cpuPerOp = n/s.cost.wall.Seconds(), us(s.cost.cpu)/n
	// Catch-up: from the SetConfig call until every client has completed
	// a request it sent after the new config went live, i.e. until all
	// traffic follows the new config.
	for _, sw := range s.swaps {
		var worst int64
		all := true
		for _, recs := range s.per {
			i := sort.Search(len(recs), func(i int) bool { return recs[i].send >= sw.live })
			if i == len(recs) {
				all = false
				break
			}
			worst = max(worst, recs[i].end-sw.pushed)
		}
		if all {
			f.catchup = append(f.catchup, ms(time.Duration(worst)))
		}
	}
	return f
}

// stickyViolations counts responses that broke stickiness: within one
// sticky generation a user must keep the version first served to it.
func stickyViolations(e *dpEnv, recs []dpRecord) int {
	type key struct {
		gen  int64
		user int32
	}
	seen := make(map[key]int8)
	bad := 0
	for _, r := range recs {
		if !r.ok || r.gLo != r.gHi || !e.config(r.gLo).Sticky {
			continue
		}
		k := key{r.gLo, r.user}
		if v, ok := seen[k]; ok && v != r.version {
			bad++
			continue
		}
		seen[k] = r.version
	}
	return bad
}

// dpHalf gathers the windows of the untraced or the traced half.
type dpHalf struct {
	fig    perWindow
	lat    []float64 // pooled, for the tails
	swaps  int
	cost   delta
	sticky []float64
	probes []probeFig
}

func (h *dpHalf) add(f dpFigures, seg *dpSegment) {
	lat := sortedCopy(f.lat)
	h.fig.add("p50_ms", quantile(lat, 0.5))
	h.fig.add("p99_ms", quantile(lat, 0.99))
	h.fig.add("ops_per_s", f.opsPerS)
	h.fig.add("cpu_us_per_op", f.cpuPerOp)
	if len(f.catchup) > 0 {
		h.fig.add("catchup_ms", median(f.catchup))
	}
	h.lat = append(h.lat, f.lat...)
	h.swaps += len(f.catchup)
	h.cost.add(seg.cost)
	h.sticky = append(h.sticky, seg.sticky...)
}

func runDataplane(o *opts) (*outcome, error) {
	base0 := time.Now()
	nclients := runtime.NumCPU()
	out := newOutcome()
	var env *dpEnv
	var clients []*dpClient
	for i := 0; i < dpSetups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = newDPEnv(o.seed)
		if err != nil {
			return nil, fmt.Errorf("dataplane set-up: %w", err)
		}
		clients = clients[:0]
		for c := 0; c < nclients; c++ {
			clients = append(clients, newDPClient(o.seed*1000+int64(c)))
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *dpClient) {
				defer wg.Done()
				for n := 0; n < dpWarmup; n++ {
					c.do(env, base0)
				}
			}(c)
		}
		wg.Wait()
		out.setups = append(out.setups, time.Since(t0).Seconds())
		for _, c := range clients {
			out.attempted += dpWarmup
			if c.nerr > 0 {
				out.fail(int64(c.nerr), "warm-up: %v", c.errs)
			}
		}
	}
	defer env.close()
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()

	segments := []*recorder{nil}
	if o.trace {
		segments = []*recorder{nil, newRecorder(base0)}
	}
	window := time.Duration(float64(o.dur) * (1 - probeShare) / dpWindows)
	slice := time.Duration(float64(o.dur) * probeShare / float64(dpWindows+len(segments)))
	var halves []*dpHalf
	var traced *recorder
	for _, rec := range segments {
		h := &dpHalf{fig: perWindow{}}
		halves = append(halves, h)
		env.rec.Store(rec)
		// A probe slice before the first window and after each one.
		for w := 0; w <= dpWindows/len(segments); w++ {
			f, err := probe.measure(slice)
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			h.probes = append(h.probes, f)
			if w == dpWindows/len(segments) {
				break
			}
			seg := runLoop(env, clients, base0, window)
			fig := seg.figures(env)
			out.attempted += int64(fig.attempted)
			if fig.failed > 0 {
				out.fail(int64(fig.failed), "responses failed their checks")
			}
			h.add(fig, seg)
		}
		traced = rec
	}
	env.rec.Store(nil)
	for _, c := range clients {
		out.notes = append(out.notes, c.errs...)
	}

	h := halves[0]
	all := sortedCopy(h.lat)
	out.e2e = h.fig.medians()
	out.windows = h.fig
	out.slow = probe.slowness()
	out.samples["p999_ms"] = quantile(all, 0.999)
	out.samples["p999_beyond"] = beyond(len(all), 0.999)
	out.samples["requests"] = len(all)
	out.samples["config_swaps"] = h.swaps
	out.samples["probe"] = probe.slices()

	if o.trace {
		t := halves[1]
		out.overhead(median(h.fig["p50_ms"]), median(t.fig["p50_ms"]), median(h.fig["cpu_us_per_op"]), median(t.fig["cpu_us_per_op"]))
		out.spans = traced.snapshot()
		sp := out.spans
		linkByRequest(sp, "proxy.serve", "upstream.serve")
		reqs := float64(len(t.lat))
		// The probe sends the same request with the same clients' settings
		// to the same stub backend, without the proxy: what it allocates
		// per request is the clients' and the backend's share.
		var allocs, bytes, p50 []float64
		for _, f := range t.probes {
			allocs, bytes, p50 = append(allocs, f.allocs), append(bytes, f.bytes), append(p50, f.p50ms)
		}
		out.layer["proxy.serve_us"] = median(durations(sp, "proxy.serve")) / 1e3
		out.layer["proxy.self_us"] = median(selfTimes(sp, "proxy.serve")) / 1e3
		out.layer["proxy.setconfig_us"] = median(durations(sp, "proxy.setconfig")) / 1e3
		out.layer["proxy.allocs_per_req"] = ratio(t.cost.allocs, reqs) - median(allocs)
		out.layer["proxy.bytes_per_req"] = ratio(t.cost.bytes, reqs) - median(bytes)
		out.layer["runtime.gc_per_kop"] = ratio(t.cost.gcs, reqs/1000)
		reg := env.p.Registry()
		sent := reg.Counter("proxy_shadow_requests_total", metrics.Labels{"service": "shop", "version": "canary"}).Value()
		dropped := reg.Counter("proxy_shadow_dropped_total", metrics.Labels{"service": "shop"}).Value()
		out.layer["proxy.shadow_sent_ratio"] = ratio(sent, sent+dropped)
		out.layer["proxy.sticky_entries"] = mean(t.sticky)
		out.layer["upstream.serve_us"] = median(durations(sp, "upstream.serve")) / 1e3
		out.layer["upstream.direct_p50_ms"] = median(p50)
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
