package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// tailBeyond is how many samples must rank above a tail percentile, and
// tailCap the highest percentile reported: on a shared 2-CPU machine the
// p99 of serve-cluster's commits moved by half between runs of identical
// code (5 seeds), the p95 by a fifth.
const (
	tailBeyond = 10
	tailCap    = 0.95
)

// failedMS is the latency recorded for a failed or refused operation:
// it misses every latency limit, so it sorts above every real sample.
var failedMS = math.Inf(1)

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs must be sorted.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	case math.IsInf(sorted[n/2], 1):
		return sorted[n/2]
	default:
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

// quartiles returns the three cut points that split sorted into four
// equal parts, by the same method as Python's statistics.quantiles(xs,
// n=4) (the "exclusive" method), so run-to-run spreads computed here
// and by a Python reader agree. It needs at least two values.
func quartiles(sorted []float64) (q1, q2, q3 float64, ok bool) {
	n := len(sorted)
	if n < 2 {
		return 0, 0, 0, false
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// tail returns the highest percentile, capped at tailCap, that has at
// least tailBeyond samples ranked above it, with the sample at that
// rank (nearest-rank definition: the p-th percentile of n samples is
// the sample of rank ⌈p·n⌉). ok is false when the run has too few
// samples for any percentile to qualify; the tail is then omitted.
func tail(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	if n <= tailBeyond {
		return 0, 0, false
	}
	rank := n - tailBeyond
	if c := int(math.Ceil(tailCap * float64(n))); c < rank {
		rank = c
	}
	return 100 * float64(rank) / float64(n), sorted[rank-1], true
}

// successRate is operations succeeded over operations attempted, every
// attempt counted once: nothing is retried, so a failure is never
// hidden behind a later success.
func successRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxErrors is how many failures are kept verbatim for the report.
const maxErrors = 5

// opStats holds one operation kind's attempts and latencies.
type opStats struct {
	attempted, failed int
	ms                []float64
}

// opLog counts every attempted operation per kind. Safe for concurrent
// use by the load clients.
type opLog struct {
	mu   sync.Mutex
	ops  map[string]*opStats
	errs []string
}

func newOpLog() *opLog { return &opLog{ops: map[string]*opStats{}} }

// record logs one attempt of op that took d; a non-nil err marks it
// failed, and its latency then counts as missing every limit.
func (l *opLog) record(op string, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.ops[op]
	if s == nil {
		s = &opStats{}
		l.ops[op] = s
	}
	s.attempted++
	if err != nil {
		s.failed++
		s.ms = append(s.ms, failedMS)
		if len(l.errs) < maxErrors {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", op, err))
		}
		return
	}
	s.ms = append(s.ms, ms(d))
}

// totals sums attempts and failures over every operation kind.
func (l *opLog) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.ops {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// sorted returns op's latencies, sorted.
func (l *opLog) sorted(op string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.ops[op]; s != nil {
		return sortedCopy(s.ms)
	}
	return nil
}

// absorb adds other's operations to l under prefixed names, so one log
// counts every attempt of a run whose passes were recorded apart.
func (l *opLog) absorb(prefix string, other *opLog) {
	other.mu.Lock()
	defer other.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for op, s := range other.ops {
		cp := *s
		cp.ms = append([]float64(nil), s.ms...)
		l.ops[prefix+op] = &cp
	}
	for _, e := range other.errs {
		if len(l.errs) < maxErrors {
			l.errs = append(l.errs, prefix+e)
		}
	}
}
