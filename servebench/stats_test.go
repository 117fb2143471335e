package main

import (
	"math"
	"testing"
)

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // reverse order: percentile sorts
	}
	cases := []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(samples, c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	// With fewer than 1000 samples fewer than ten lie beyond p99.
	if _, beyond := percentile([]float64{3, 1, 2}, 99); beyond != 0 {
		t.Errorf("p99 of 3 samples has %d beyond, want 0", beyond)
	}
	if v, beyond := percentile(nil, 50); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("percentile of no samples = %v, %d; want NaN, 0", v, beyond)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9.9, 1.2, 4.4, 3.1}, [3]float64{1.675, 3.75, 8.525}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		got, err := quartiles(append([]float64(nil), c.data...))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestStealCorrection(t *testing.T) {
	a, err := parseCPULine("cpu  100 0 50 800 10 0 5 35 0 0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseCPULine("cpu  200 0 100 1600 20 0 10 70 7 0")
	if err != nil {
		t.Fatal(err)
	}
	// 1000 ticks passed, 35 of them stolen; 190 were busy or stolen.
	if got := stealFrac(a, b); math.Abs(got-0.035) > 1e-12 {
		t.Errorf("stealFrac = %v, want 0.035", got)
	}
	if got := busyStealFrac(a, b); math.Abs(got-35.0/190) > 1e-12 {
		t.Errorf("busyStealFrac = %v, want %v", got, 35.0/190)
	}
	if got := stealFrac(a, a); got != 0 {
		t.Errorf("stealFrac over no time = %v, want 0", got)
	}
	if got := unsteal(12.5, 0); got != 12.5 {
		t.Errorf("unsteal without steal = %v, want the identity", got)
	}
	if got := unsteal(10, 0.2); math.Abs(got-8) > 1e-12 {
		t.Errorf("unsteal(10, 0.2) = %v, want 8", got)
	}
	if _, err := parseCPULine("cpu0 1 2 3 4 5 6 7 8 9 10"); err == nil {
		t.Error("a per-CPU line parsed as the aggregate line")
	}
}

func TestProcParsers(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := []byte("4242 (pv serve) (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3\n")
	us, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if us != 3e6 {
		t.Errorf("utime+stime = %v us, want 3e6", us)
	}
	if _, err := parseProcStatCPU([]byte("4242 (pvserve) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := []byte("Name:\tpvserve\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n")
	for key, want := range map[string]float64{"VmHWM": 20, "VmRSS": 10} {
		got, err := parseStatusMB(status, key)
		if err != nil || got != want {
			t.Errorf("%s = %v, %v; want %v", key, got, err, want)
		}
	}
	if _, err := parseStatusMB(status, "VmSwap"); err == nil {
		t.Error("a missing status line parsed")
	}
}
