package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{1, 2, failedMS, failedMS}, failedMS},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestQuartiles pins the cut points to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(4), 1.25, 2.5, 3.75},
		{[]float64{1, 5}, 0, 3, 6}, // the exclusive method extrapolates
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{n: 10, ok: false},                        // no percentile has 10 samples beyond it
		{n: 11, ok: true, pct: 100.0 / 11, at: 1}, // the lowest sample, 10 above it
		{n: 100, ok: true, pct: 90, at: 90},
		{n: 200, ok: true, pct: 95, at: 190},   // exactly 10 beyond p95
		{n: 5000, ok: true, pct: 95, at: 4750}, // capped at p95
	} {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok {
			t.Errorf("tail(n=%d) ok = %v, want %v", c.n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if math.Abs(pct-c.pct) > 1e-9 || v != c.at {
			t.Errorf("tail(n=%d) = p%v %v, want p%v %v", c.n, pct, v, c.pct, c.at)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("tail(n=%d): only %d samples beyond it", c.n, beyond)
		}
	}
}

// TestFailuresMissEveryLimit checks that a failed operation counts
// against success_rate over every attempt and sorts above every real
// latency.
func TestFailuresMissEveryLimit(t *testing.T) {
	l := newOpLog()
	for i := 0; i < 98; i++ {
		l.record("mine", time.Millisecond, nil)
	}
	l.record("mine", 0, errors.New("refused"))
	l.record("commit", 0, errors.New("refused"))
	attempted, failed := l.totals()
	if attempted != 100 || failed != 2 {
		t.Fatalf("totals = %d attempted, %d failed; want 100, 2", attempted, failed)
	}
	if got := successRate(attempted, failed); got != 0.98 {
		t.Errorf("success rate = %v, want 0.98", got)
	}
	xs := l.sorted("mine")
	if !math.IsInf(xs[len(xs)-1], 1) || xs[0] != 1 {
		t.Errorf("failed mine should sort last as +Inf: %v", xs[len(xs)-3:])
	}
	if len(l.errs) != 2 {
		t.Errorf("want both errors kept verbatim, got %v", l.errs)
	}
	if got := successRate(0, 0); got != 0 {
		t.Errorf("success rate of nothing attempted = %v, want 0", got)
	}
}
