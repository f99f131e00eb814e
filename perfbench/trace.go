package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark around a call into a module's public API (the program itself
// carries no tracing). Times are wall-clock Unix nanoseconds so spans
// line up with the Created/Started/Finished stamps the job API reports.
type span struct {
	layer      string // e.g. "search.beam", "store.put", or a root op such as "mine"
	key        string // session id: links spans of one request
	start, end int64
	parent     int // index of the causing span; -1 for a root (a client operation)
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index, for children to name as
// their parent.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span of layer under parent (-1 for a root) and returns
// its index; finish closes it.
func (t *tracer) begin(layer, key string, parent int) int {
	return t.add(span{layer: layer, key: key, start: time.Now().UnixNano(), parent: parent})
}

func (t *tracer) finish(i int) {
	end := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = end
}

// timeSpan runs fn inside a span of layer under parent.
func (t *tracer) timeSpan(layer string, parent int, fn func()) {
	i := t.begin(layer, "", parent)
	fn()
	t.finish(i)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent, and overlapping
// children are counted once.
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return s.dur() - covered
}

// checkTolerance is how far the self times of one traced operation may
// sum beyond its wall time: 1% of the wall time, or 2µs for very short
// operations. The sum exceeds the wall time only where child spans
// overlap each other or escape their parent, i.e. where the breakdown
// would count one interval twice.
func checkTolerance(wall int64) int64 { return max(wall/100, 2000) }

// breakdown is the result of attributing every traced operation's wall
// time to layers by self time.
type breakdown struct {
	// self sums self time (ns) per layer; calls counts spans per layer.
	self  map[string]int64
	calls map[string]int
	// wall sums root durations (ns) per root layer, roots counts them.
	wall  map[string]int64
	roots map[string]int
	// worstExcess is the largest (Σ self − wall) over all operations,
	// and violations counts operations beyond checkTolerance.
	worstExcess int64
	violations  int
	checked     int
	// byRoot sums, per "root/layer", self time, duration and calls of
	// the layer's spans under operations of that root layer.
	byRoot map[string]agg
}

type agg struct {
	self, dur int64
	calls     int
}

// attribute walks every root span's tree (spans with parent -1; other
// negative parents mark spans outside every tree), checks that its self times
// add up to its wall time, and sums self times per layer.
func attribute(spans []span) *breakdown {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	bd := &breakdown{
		self: map[string]int64{}, calls: map[string]int{},
		wall: map[string]int64{}, roots: map[string]int{}, byRoot: map[string]agg{},
	}
	var walk func(i int, root string) int64
	walk = func(i int, root string) int64 {
		children := make([]span, len(kids[i]))
		sum := int64(0)
		for k, c := range kids[i] {
			children[k] = spans[c]
			sum += walk(c, root)
		}
		s := spans[i]
		st := selfTime(s, children)
		bd.self[s.layer] += st
		bd.calls[s.layer]++
		a := bd.byRoot[root+"/"+s.layer]
		a.self += st
		a.dur += s.dur()
		a.calls++
		bd.byRoot[root+"/"+s.layer] = a
		return sum + st
	}
	for i, s := range spans {
		if s.parent != -1 {
			continue
		}
		total := walk(i, s.layer)
		bd.wall[s.layer] += s.dur()
		bd.roots[s.layer]++
		bd.checked++
		excess := total - s.dur()
		bd.worstExcess = max(bd.worstExcess, excess)
		if excess > checkTolerance(s.dur()) {
			bd.violations++
		}
	}
	return bd
}

// meanMS is the mean per-call duration of a layer in milliseconds, from
// a total in nanoseconds; 0 when the layer saw no calls.
func meanMS(totalNS int64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(totalNS) / float64(calls) / 1e6
}
