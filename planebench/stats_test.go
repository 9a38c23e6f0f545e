package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := beyond(len(xs), c.q); got != c.beyond {
			t.Errorf("beyond(1000, %v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	// p99.9 is reportable (ten samples beyond it) from 10k samples on.
	if got := beyond(10000, 0.999); got != 10 {
		t.Errorf("beyond(10000, 0.999) = %d, want 10", got)
	}
	if got := beyond(9999, 0.999); got >= 10 {
		t.Errorf("beyond(9999, 0.999) = %d, want fewer than 10", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number that passes for a measurement")
	}
	if got := quantile([]float64{7}, 0.999); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// On a host at half the reference speed, a time halves and a rate
// doubles when scaled; CPU per operation follows the probe's CPU per
// request instead, which a CPU shared with other tenants leaves alone.
func TestScaledByProbeSlowness(t *testing.T) {
	ref := probeFig{rate: refProbeRate, cpuUs: refProbeCPU, n: 4200}
	if s := (&hostProbe{figs: []probeFig{ref}}).slowness(); s != (slowness{1, 1}) {
		t.Fatalf("reference probe: slowness %v, want 1, 1", s)
	}
	shared := probeFig{rate: refProbeRate / 2, cpuUs: refProbeCPU, n: 2100}
	s := (&hostProbe{figs: []probeFig{shared, shared}}).slowness()
	if s != (slowness{2, 1}) {
		t.Fatalf("half-speed host: slowness %v, want 2, 1", s)
	}
	// Slices of equal length pool into their mean rate: 3/4 of the
	// reference, and CPU per request weighted by requests.
	mixed := (&hostProbe{figs: []probeFig{ref, {rate: refProbeRate / 2, cpuUs: 2 * refProbeCPU, n: 2100}}}).slowness()
	if math.Abs(mixed.Rate-4.0/3) > 1e-9 || math.Abs(mixed.CPU-4.0/3) > 1e-9 {
		t.Fatalf("mixed slices: slowness %v, want 4/3, 4/3", mixed)
	}
	got := scaled(map[string]float64{"p50_ms": 0.3, "setup_s": 1, "ops_per_s": 1000, "cpu_us_per_op": 50}, s)
	if got["p50_ms"] != 0.15 || got["setup_s"] != 0.5 || got["ops_per_s"] != 2000 || got["cpu_us_per_op"] != 50 {
		t.Errorf("scaled = %v, want p50 0.15, setup 0.5, ops 2000, cpu 50", got)
	}
	slower := probeFig{rate: refProbeRate / 2, cpuUs: 2 * refProbeCPU, n: 2100}
	s = (&hostProbe{figs: []probeFig{slower}}).slowness()
	if got := scaled(map[string]float64{"cpu_us_per_op": 50}, s); got["cpu_us_per_op"] != 25 {
		t.Errorf("slower CPU: cpu_us_per_op scaled to %v, want 25", got["cpu_us_per_op"])
	}
	w := perWindow{}
	for _, v := range []float64{3, 1, 2} {
		w.add("p50_ms", v)
	}
	if m := w.medians(); m["p50_ms"] != 2 {
		t.Errorf("median over windows = %v, want 2", m["p50_ms"])
	}
}
