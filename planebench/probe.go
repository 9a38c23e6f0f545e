package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bifrost/internal/httpx"
)

// The host probe is a fixed task that runs no Bifrost code: a closed loop
// of nproc keep-alive clients getting a small JSON document from a stub
// server over loopback, the dataplane's request without the proxy. Every
// workload runs it in short slices between its measured stretches.
//
// The host is shared, and its speed drifts with other tenants' load: two
// sets of runs of the same code twenty minutes apart differed by up to a
// third, on every CPU-bound figure at once. So every gated figure is
// divided by how slow the host ran during the run, as the probe measured
// it, and reads what it would on a host of the reference speed. The
// figures as measured stay in each result's metadata.
const (
	probeShare = 0.1 // of the measured time
	probeMin   = 100 * time.Millisecond
	// The probe's typical request rate on the 2-vCPU host the benchmark
	// was sized on. It only fixes the scale; a comparison is between runs.
	refProbeRate = 42000.0
	// The probe's typical process CPU per request on that host, in µs.
	refProbeCPU = 40.0
)

// probeFig is what one probe slice measured.
type probeFig struct {
	p50ms  float64 // request latency
	cpuUs  float64 // process CPU per request
	rate   float64 // requests per second
	allocs float64 // heap allocations per request
	bytes  float64 // heap bytes allocated per request
	n      int
}

// stubBody is what a stub backend of version answers.
func stubBody(version string) []byte {
	return []byte(`{"service":"shop","version":"` + version + `","items":[{"sku":"a-1","qty":2},{"sku":"b-7","qty":1}]}`)
}

type hostProbe struct {
	srv  *httpx.Server
	hcs  []*http.Client
	reqs []*http.Request
	lat  [][]float64
	figs []probeFig
}

// newHostProbe starts the probe's server and clients and warms them up.
func newHostProbe() (*hostProbe, error) {
	body := stubBody("probe")
	srv, err := httpx.NewServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	if err != nil {
		return nil, err
	}
	srv.Start()
	p := &hostProbe{srv: srv}
	for i := 0; i < runtime.NumCPU(); i++ {
		req, err := http.NewRequest(http.MethodGet, srv.URL()+"/api/cart", nil)
		if err != nil {
			p.close()
			return nil, err
		}
		req.Header.Set("Cookie", "bifrost-id=00000000-0000-4000-8000-000000000000")
		p.hcs = append(p.hcs, keepAliveClient())
		p.reqs = append(p.reqs, req)
		p.lat = append(p.lat, make([]float64, 0, 1<<14))
	}
	if _, err := p.measure(probeMin); err != nil {
		p.close()
		return nil, fmt.Errorf("probe warm-up: %w", err)
	}
	p.figs = nil
	return p, nil
}

// keepAliveClient is one client with one keep-alive connection.
func keepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// measure runs one probe slice of d and keeps its figures.
func (p *hostProbe) measure(d time.Duration) (probeFig, error) {
	d = max(d, probeMin)
	errs := make([]error, len(p.hcs))
	var wg sync.WaitGroup
	u0 := snapshot()
	deadline := u0.wall.Add(d)
	for i := range p.hcs {
		p.lat[i] = p.lat[i][:0]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := p.hcs[i].Do(p.reqs[i])
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errs[i] = err
					return
				}
				p.lat[i] = append(p.lat[i], ms(time.Since(t0)))
			}
		}(i)
	}
	wg.Wait()
	c := u0.to(snapshot())
	var all []float64
	for i, err := range errs {
		if err != nil {
			return probeFig{}, err
		}
		all = append(all, p.lat[i]...)
	}
	n := float64(len(all))
	f := probeFig{p50ms: median(all), cpuUs: us(c.cpu) / n, rate: n / c.wall.Seconds(), allocs: c.allocs / n,
		bytes: c.bytes / n, n: len(all)}
	p.figs = append(p.figs, f)
	return f, nil
}

// slices returns the probe slices' figures for the metadata.
func (p *hostProbe) slices() map[string][]float64 {
	m := map[string][]float64{}
	for _, f := range p.figs {
		m["p50_ms"] = append(m["p50_ms"], f.p50ms)
		m["cpu_us"] = append(m["cpu_us"], f.cpuUs)
		m["rate"] = append(m["rate"], f.rate)
	}
	return m
}

// slowness is how much slower than the reference the host ran during a
// run, above 1 on a slower host.
type slowness struct {
	// Rate is the reference request rate over the slices' rate. It sees a
	// slower CPU and a CPU shared with other tenants alike.
	Rate float64 `json:"rate"`
	// CPU is the slices' CPU per request over the reference. It sees a
	// slower CPU only, as a figure of CPU time per operation does:
	// time the process waits for a shared CPU is not CPU time.
	CPU float64 `json:"cpu"`
}

// slowness measures the host over all the run's probe slices together.
// The probe's latency tracked the workloads' latencies less closely than
// its rate across sets of runs (README.md).
func (p *hostProbe) slowness() slowness {
	var n, wall, cpu float64
	for _, f := range p.figs {
		n += float64(f.n)
		wall += float64(f.n) / f.rate
		cpu += f.cpuUs * float64(f.n)
	}
	return slowness{Rate: refProbeRate * wall / n, CPU: cpu / n / refProbeCPU}
}

func (p *hostProbe) close() {
	shutdown(p.srv)
	for _, hc := range p.hcs {
		hc.CloseIdleConnections()
	}
}
