package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- {
		s.addMS(float64(i))
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
		wantOK     bool
	}{
		{n: 1000, p: 0.99, want: 990, wantBeyond: 10, wantOK: true},
		{n: 999, p: 0.99, want: 990, wantBeyond: 9, wantOK: false},
		{n: 20, p: 0.50, want: 10, wantBeyond: 10, wantOK: true},
		{n: 19, p: 0.50, want: 10, wantBeyond: 9, wantOK: false},
		{n: 1, p: 0.50, want: 1, wantBeyond: 0, wantOK: false},
	} {
		v, beyond, ok := seq(tc.n).percentile(tc.p)
		if v != tc.want || beyond != tc.wantBeyond || ok != tc.wantOK {
			t.Errorf("n=%d p=%g: got (%g, %d beyond, ok=%v), want (%g, %d beyond, ok=%v)",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.wantBeyond, tc.wantOK)
		}
	}
	if _, _, ok := (&samples{}).percentile(0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestQuantilesRequiresTenBeyondAndPrintsCount(t *testing.T) {
	var buf bytes.Buffer
	m := metricSet{}
	if err := quantiles(&buf, m, "lat", "ms", seq(1000)); err != nil {
		t.Fatal(err)
	}
	if m["lat.p50"].Value != 500 || m["lat.p99"].Value != 990 || m["lat.p99"].Unit != "ms" {
		t.Errorf("metrics = %v", m)
	}
	if out := buf.String(); !strings.Contains(out, "n=1000") || !strings.Contains(out, "(10 beyond)") {
		t.Errorf("printed %q, want the sample count and the samples beyond p99", out)
	}

	buf.Reset()
	m = metricSet{}
	if err := quantiles(&buf, m, "lat", "ms", seq(999)); err == nil {
		t.Error("p99 over 999 samples (9 beyond) was accepted")
	}
	if len(m) != 0 {
		t.Errorf("a rejected percentile still set metrics %v", m)
	}
	if !strings.Contains(buf.String(), "n=999") {
		t.Errorf("printed %q, want the sample count even on rejection", buf.String())
	}
}

func lat(n int) *samples {
	s := &samples{}
	for i := 1; i <= n; i++ {
		s.addMS(float64(i))
	}
	return s
}

func TestReportFastestUsesFastestRepetitions(t *testing.T) {
	var a, b repeated
	for _, ms := range []int{30, 10, 20, 40} {
		if err := a.add(time.Duration(ms)*time.Millisecond, 100, lat(400)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ms := range []int{50, 45} {
		if err := b.add(time.Duration(ms)*time.Millisecond, 50, lat(400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.add(time.Millisecond, 49, nil); err == nil {
		t.Error("a repetition with another job count was accepted")
	}
	if len(a.fastest) != keepFastest || a.fastest[0].wall != 10*time.Millisecond || a.fastest[2].wall != 30*time.Millisecond {
		t.Fatalf("kept repetitions %v, want the %d fastest in order", a.fastest, keepFastest)
	}

	var buf bytes.Buffer
	m := metricSet{}
	if err := reportFastest(&buf, m, &a, &b); err != nil {
		t.Fatal(err)
	}
	// 150 jobs over 10 ms + 45 ms.
	if got, want := m["jobs_per_s"].Value, 150/0.055; math.Abs(got-want) > 1e-6 {
		t.Errorf("jobs_per_s = %g, want %g", got, want)
	}
	// The three fastest of a and both of b: 5 x 400 samples.
	if !strings.Contains(buf.String(), "n=2000") {
		t.Errorf("printed %q, want latency pooled from 2000 samples", buf.String())
	}
	if m["latency_ms.p99"].Value != 396 {
		t.Errorf("latency_ms.p99 = %g, want 396", m["latency_ms.p99"].Value)
	}
}
