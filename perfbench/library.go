package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
	"repro/internal/spreadopt"
)

// libWorkload is a library loop over core.Miner: one caller runs
// sessions in sequence on one generated dataset, each session creating
// a miner, running a fixed number of mine → commit iterations, then
// saving and resuming the session. Every session does the same work, so
// a run's samples are whole copies of one session's, and its medians do
// not depend on how many sessions fit in the measured time.
type libWorkload struct {
	name       string
	data       func(seed int64) *dataset.Dataset
	search     search.Params
	spread     bool // two-step loop: location, then spread, per iteration
	iterations int  // per session
}

// crimeBeam runs the paper's default beam search (width 40, depth 4,
// top-150, 4 splits) on the crime replica, where beam search is nearly
// all of the wall time.
var crimeBeam = &libWorkload{
	name:       "crime-beam",
	data:       func(seed int64) *dataset.Dataset { return gen.CrimeLike(seed).DS },
	search:     search.Params{BeamWidth: 40, MaxDepth: 4, TopK: 150, NumSplits: 4},
	iterations: 4,
}

// mammalsSpread runs the paper's two-step loop with the Fig. 4–6 search
// settings on the mammals replica. After the first spread commit the
// groups have distinct covariances, so scoring, spread ascent and refits
// work on the 124-dimensional general path. Every run mines the same
// replica (seed 1) and the seed sets the spread search's random
// restarts: across replica seeds, which patterns a replica yields
// decides whether a session's commits refit on the general path, and the
// commit median ranged 0.73–11.3 ms over 5 seeds.
var mammalsSpread = &libWorkload{
	name:       "mammals-spread",
	data:       func(int64) *dataset.Dataset { return gen.MammalsLike(1).DS },
	search:     search.Params{BeamWidth: 10, MaxDepth: 2, TopK: 150, NumSplits: 4},
	spread:     true,
	iterations: 3,
}

// setupReps is how many times a library run sets the system up; setup_s
// is the median. Each set-up starts from a collected heap, so garbage
// left by the one before does not land in its time.
const setupReps = 15

// config is the miner configuration of a run; the seed also seeds the
// spread search's random restarts.
func (w *libWorkload) config(seed int64) core.Config {
	return core.Config{Search: w.search, Spread: spreadopt.Params{Seed: seed}}
}

func (w *libWorkload) run(cfg config) (*outcome, error) {
	out := &outcome{ops: newOpLog(), layers: map[string]float64{}}
	var ds *dataset.Dataset
	var langMS []float64
	conds := 0
	for i := 0; i < setupReps; i++ {
		if ds != nil {
			engine.EvictLanguage(ds)
		}
		runtime.GC()
		start := time.Now()
		ds = w.data(cfg.seed)
		if _, err := core.NewMiner(ds, w.config(cfg.seed)); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		langStart := time.Now()
		lang := engine.LanguageFor(ds, w.search.NumSplits)
		lang.CondTargetStats()
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		langMS = append(langMS, ms(time.Since(langStart)))
		conds = len(lang.Conds)
	}

	s := &sessionRunner{ds: ds, cfg: w.config(cfg.seed), spread: w.spread, iterations: w.iterations, acc: newTally()}
	var digests []string
	measure := func(d time.Duration, ops *opLog, tr *tracer) (time.Duration, int) {
		s.ops, s.tr = ops, tr
		start := time.Now()
		iterations := 0
		// Whole sessions only, and enough mines for a tail percentile.
		for n := 0; n == 0 || time.Since(start) < d ||
			(len(ops.sorted("mine")) <= tailBeyond && time.Since(start) < 3*d); n++ {
			digest, _, err := s.run()
			if err == nil {
				digests = append(digests, digest)
				iterations += w.iterations
			}
		}
		return time.Since(start), iterations
	}

	if !cfg.trace {
		out.wall, out.iterations = measure(cfg.seconds, out.ops, nil)
	} else {
		// A third of the time untraced, the rest traced: the difference
		// is the tracing overhead, and both passes must mine the same
		// patterns, which shows the traced rebuild of MineAt is faithful.
		out.wall, out.iterations = measure(cfg.seconds/3, out.ops, nil)
		traced := newOpLog()
		tr := &tracer{}
		measure(cfg.seconds-cfg.seconds/3, traced, tr)
		out.layers["trace.overhead_ms"] = median(traced.sorted("mine")) - median(out.ops.sorted("mine"))
		out.ops.absorb("traced-", traced)
		libraryLayers(out, s.acc, attribute(tr.snapshot()))
		out.layers["engine.language_build_ms"] = median(sortedCopy(langMS))
		out.layers["engine.conditions"] = float64(conds)
	}
	out.mismatches = append(out.mismatches, s.mismatches...)
	for _, d := range digests {
		if d != digests[0] {
			out.mismatches = append(out.mismatches, fmt.Sprintf("session digests differ: %s vs %s", digests[0], d))
			break
		}
	}
	if len(digests) > 0 {
		out.notes = append(out.notes, fmt.Sprintf("digest %s: all %d complete sessions mined and committed the same patterns and model versions", digests[0], len(digests)))
	}
	return out, nil
}

// libraryLayers fills the library layers' metrics of a traced run from
// its span breakdown and counters, and checks that the breakdown adds up.
func libraryLayers(out *outcome, acc *tally, bd *breakdown) {
	for metric, layer := range map[string]string{
		"search.beam_ms":        "search.beam",
		"si.scorer_prep_ms":     "si.scorer_prep",
		"spreadopt.optimize_ms": "spreadopt.optimize",
		"background.refit_ms":   "background.refit",
	} {
		out.layers[metric] = meanMS(bd.self[layer], bd.calls[layer])
	}
	for _, name := range []string{
		"search.evaluated", "search.bound_evals", "search.pruned", "si.groups",
		"background.sweeps", "background.fork_ms", "background.save_ms", "background.snapshot_bytes",
	} {
		out.layers[name] = acc.mean(name)
	}
	out.layers["spreadopt.timed_out"] = acc.total("spreadopt.timed_out")
	out.layers["search.prune_ratio"] = ratio(acc.total("search.pruned"), acc.total("search.bound_evals"))
	out.notes = append(out.notes, acc.spreadNote("search.bound_evals"), acc.spreadNote("search.pruned"))
	out.notes = append(out.notes, traceNotes(bd)...)
	if bd.violations > 0 {
		out.mismatches = append(out.mismatches, fmt.Sprintf("trace check: %d operations' self times exceed their wall time beyond tolerance", bd.violations))
	}
}

// sessionRunner runs one library session at a time, recording its
// operations and, when traced, spans and per-layer counters.
type sessionRunner struct {
	ds         *dataset.Dataset
	cfg        core.Config
	spread     bool
	iterations int
	ops        *opLog
	tr         *tracer // nil: untraced
	acc        *tally
	mismatches []string
}

// run executes one session: create, the iterations, then save and
// resume. It returns a digest of everything the session mined and
// committed, and each iteration's location pattern.
func (s *sessionRunner) run() (string, []*pattern.Location, error) {
	h := sha256.New()
	var m *core.Miner
	start := time.Now()
	m, err := core.NewMiner(s.ds, s.cfg)
	s.ops.record("create", time.Since(start), err)
	if err != nil {
		return "", nil, err
	}
	locs := make([]*pattern.Location, 0, s.iterations)
	for i := 0; i < s.iterations; i++ {
		loc, err := s.iterate(m, h)
		if err != nil {
			return "", nil, err
		}
		locs = append(locs, loc)
	}
	// Resume: persist the session's belief state and bring it back as a
	// new miner, as a server does after a restart.
	var saved bytes.Buffer
	var resumed *core.Miner
	start = time.Now()
	err = func() error {
		if err := m.Snapshot().SaveJSON(&saved); err != nil {
			return err
		}
		model, err := background.LoadJSONExact(bytes.NewReader(saved.Bytes()))
		if err != nil {
			return err
		}
		if resumed, err = core.NewMiner(s.ds, s.cfg); err != nil {
			return err
		}
		return resumed.Restore(model, s.iterations)
	}()
	s.ops.record("resume", time.Since(start), err)
	if err != nil {
		return "", nil, err
	}
	var again bytes.Buffer
	if err := resumed.Snapshot().SaveJSON(&again); err != nil || !bytes.Equal(saved.Bytes(), again.Bytes()) {
		s.mismatches = append(s.mismatches, fmt.Sprintf("resumed model is not byte-identical to the saved one (err %v)", err))
	}
	h.Write(saved.Bytes())
	return hex.EncodeToString(h.Sum(nil))[:16], locs, nil
}

// errSpreadSkipped marks a two-step mine whose spread half never ran
// because committing its location failed.
var errSpreadSkipped = errors.New("spread not mined: location commit failed")

// iterate runs one mine → commit step. In the two-step loop the mine is
// the location search plus the spread search and the commit is the
// location commit plus the spread commit; the location commit has to
// land between the two searches.
func (s *sessionRunner) iterate(m *core.Miner, h hash.Hash) (*pattern.Location, error) {
	loc, mineD, err := s.mineLocation(m)
	if err != nil {
		s.ops.record("mine", mineD, err)
		return nil, err
	}
	fmt.Fprintf(h, "loc %s %d %x\n", loc.Intention.Format(s.ds), loc.Extension.Count(), math.Float64bits(loc.SI))
	commitD, err := s.commit("commit.location", m, func() error {
		return m.Model.CommitLocation(loc.Extension, loc.Mean)
	})
	if !s.spread {
		s.ops.record("mine", mineD, nil)
		s.ops.record("commit", commitD, err)
		fmt.Fprintf(h, "version %d\n", m.Snapshot().Version())
		return loc, err
	}
	if err != nil {
		s.ops.record("mine", mineD, errSpreadSkipped)
		s.ops.record("commit", commitD, err)
		return nil, err
	}
	fmt.Fprintf(h, "version %d\n", m.Snapshot().Version())
	sp, spreadD, err := s.mineSpread(m, loc)
	s.ops.record("mine", mineD+spreadD, err)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(h, "spread %x %x\n", math.Float64bits(sp.SI), math.Float64bits(sp.Variance))
	for _, w := range sp.W {
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(w))
	}
	d, err := s.commit("commit.spread", m, func() error {
		return m.Model.CommitSpread(sp.Extension, sp.W, sp.Center, sp.Variance)
	})
	s.ops.record("commit", commitD+d, err)
	fmt.Fprintf(h, "version %d\n", m.Snapshot().Version())
	return loc, err
}

// mineLocation is core.Miner.MineAt. Traced, it is rebuilt from its
// public parts so each part gets a span: the condition language, the
// scorer over the pinned model version, and the beam search.
func (s *sessionRunner) mineLocation(m *core.Miner) (*pattern.Location, time.Duration, error) {
	v := m.Snapshot()
	start := time.Now()
	if s.tr == nil {
		loc, _, err := m.MineAt(v, core.MineOptions{})
		return loc, time.Since(start), err
	}
	root := s.tr.begin("mine.location", "", -1)
	s.tr.timeSpan("engine.language", root, func() { engine.LanguageFor(m.DS, m.Cfg.Search.NumSplits) })
	var scorer *si.LocationScorer
	var err error
	s.tr.timeSpan("si.scorer_prep", root, func() { scorer, err = si.NewLocationScorer(v, m.DS.Y, m.Cfg.SI) })
	if err != nil {
		s.tr.finish(root)
		return nil, time.Since(start), err
	}
	var res *search.Results
	s.tr.timeSpan("search.beam", root, func() { res = search.Beam(m.DS, scorer, m.Cfg.Search) })
	top := res.Top()
	var loc *pattern.Location
	if top != nil {
		loc = &pattern.Location{
			Intention: top.Intention, Extension: top.Extension, Mean: top.Mean,
			IC: top.IC, DL: m.Cfg.SI.DL(len(top.Intention), false), SI: top.SI,
		}
	}
	s.tr.finish(root)
	d := time.Since(start)
	s.acc.add("search.evaluated", float64(res.Evaluated))
	s.acc.add("search.bound_evals", float64(res.BoundEvals))
	s.acc.add("search.pruned", float64(res.Pruned))
	s.acc.add("si.groups", float64(scorer.NumGroups()))
	if loc == nil {
		return nil, d, core.ErrNoPattern
	}
	return loc, d, nil
}

// mineSpread is core.Miner.MineSpreadAt; traced, a direct
// spreadopt.Optimize call with the parameters the miner would use.
func (s *sessionRunner) mineSpread(m *core.Miner, loc *pattern.Location) (*pattern.Spread, time.Duration, error) {
	v := m.Snapshot()
	start := time.Now()
	if s.tr == nil {
		sp, _, err := m.MineSpreadAt(v, loc, core.MineOptions{})
		return sp, time.Since(start), err
	}
	root := s.tr.begin("mine.spread", "", -1)
	p := m.Cfg.Spread
	if p.Parallelism <= 0 {
		p.Parallelism = m.Cfg.Search.Parallelism
	}
	var res *spreadopt.Result
	var err error
	s.tr.timeSpan("spreadopt.optimize", root, func() {
		res, err = spreadopt.Optimize(v, m.DS.Y, loc.Extension, loc.Mean, len(loc.Intention), m.Cfg.SI, p)
	})
	s.tr.finish(root)
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	if res.TimedOut {
		s.acc.add("spreadopt.timed_out", 1)
	}
	return &pattern.Spread{
		Intention: loc.Intention, Extension: loc.Extension, Center: loc.Mean,
		W: res.W, Variance: res.Variance, IC: res.IC,
		DL: m.Cfg.SI.DL(len(loc.Intention), true), SI: res.SI,
	}, d, nil
}

// commit runs one background-model commit. Traced, it is a root span
// over the refit, and the version it publishes is then forked and saved
// outside the span, measuring what a server pays per commit for spread
// previews and snapshots.
func (s *sessionRunner) commit(root string, m *core.Miner, fn func() error) (time.Duration, error) {
	start := time.Now()
	if s.tr == nil {
		err := fn()
		return time.Since(start), err
	}
	var err error
	r := s.tr.begin(root, "", -1)
	s.tr.timeSpan("background.refit", r, func() { err = fn() })
	s.tr.finish(r)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	s.acc.add("background.sweeps", float64(m.Model.LastSweeps))
	v := m.Snapshot()
	t := time.Now()
	v.Fork()
	s.acc.add("background.fork_ms", ms(time.Since(t)))
	var buf bytes.Buffer
	t = time.Now()
	if err := v.SaveJSON(&buf); err != nil {
		return d, err
	}
	s.acc.add("background.save_ms", ms(time.Since(t)))
	s.acc.add("background.snapshot_bytes", float64(buf.Len()))
	return d, nil
}

// tally collects per-layer counter observations. Safe for concurrent
// use.
type tally struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func newTally() *tally { return &tally{vals: map[string][]float64{}} }

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.vals[name] = append(t.vals[name], v)
}

// total is the sum of a counter's observations.
func (t *tally) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, v := range t.vals[name] {
		sum += v
	}
	return sum
}

// mean is the per-observation mean of a counter; 0 when never observed.
func (t *tally) mean(name string) float64 {
	t.mu.Lock()
	n := len(t.vals[name])
	t.mu.Unlock()
	if n == 0 {
		return 0
	}
	return t.total(name) / float64(n)
}

// spreadNote reports a counter's quartiles over its observations. The
// pruning counters depend on goroutine scheduling, so they are reported
// with their spread rather than as exact counts.
func (t *tally) spreadNote(name string) string {
	t.mu.Lock()
	xs := sortedCopy(t.vals[name])
	t.mu.Unlock()
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%s: %d observations", name, len(xs))
	}
	return fmt.Sprintf("%s per mine: quartiles %.6g / %.6g / %.6g over %d mines", name, q1, q2, q3, len(xs))
}

// traceNotes reports, per root operation, its mean wall time beside the
// sum of its layers' mean self times, and the trace check's result.
func traceNotes(bd *breakdown) []string {
	notes := []string{fmt.Sprintf("trace check: %d operations, worst (sum of self times - wall) %.4f ms, %d beyond tolerance (1%% of wall, min 2µs)",
		bd.checked, float64(bd.worstExcess)/1e6, bd.violations)}
	for _, root := range sortedKeys(bd.roots) {
		n := bd.roots[root]
		notes = append(notes, fmt.Sprintf("trace %s: mean wall %.4f ms over %d operations", root, meanMS(bd.wall[root], n), n))
	}
	for _, layer := range sortedKeys(bd.calls) {
		notes = append(notes, fmt.Sprintf("trace self %-24s %.4f ms per call, %d calls", layer, meanMS(bd.self[layer], bd.calls[layer]), bd.calls[layer]))
	}
	return notes
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
