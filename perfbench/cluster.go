package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/jobs"
	"repro/internal/pattern"
	"repro/internal/repstore"
	"repro/internal/server"
)

// The serve-cluster workload runs the shipped topology in one process:
// a cluster.Router in front of clusterShards server.Server shards that
// share one quorum-replicated store over storeReplicas in-memory
// replicas, all on loopback HTTP, driven on /api/v1 by closed-loop clients. A round
// creates sessionsPerRound sessions and runs phase1Iterations mine →
// commit iterations on each (phase 1), rebuilds the router, shards and
// quorum store over the same replicas (restart), then resumes every session
// with mine → commit → history → delete (phase 2). More sessions are
// open than the shards' default 256-session caps hold, so LRU eviction
// and restore-on-miss run too.
//
// Mines are location-only: the router forwards a mine's body with an
// unknown length, which the shard's mine handler skips, so a spread
// preview requested through the router is silently not run (reported
// by spreadProbe on every run).
const (
	clusterShards    = 2
	storeReplicas    = 3
	maxClients       = 2
	sessionsPerRound = 640
	phase1Iterations = 3
	// datasetPool is how many synthetic datasets the sessions cycle
	// through; each is mined once directly with core.Miner as the
	// reference the served patterns must match.
	datasetPool = 4
	// clusterSetupReps is how many times a run sets the topology up, each
	// from a collected heap. A set-up takes about 1.5 ms; with 25 of them
	// and no collection, run medians ranged 1.2–2.2 ms.
	clusterSetupReps = 101
)

func runServeCluster(cfg config) (*outcome, error) {
	out := &outcome{ops: newOpLog(), layers: map[string]float64{}}
	var topo *topology
	var replicas []*server.MemStore
	for i := 0; i < clusterSetupReps; i++ {
		if topo != nil {
			topo.close()
		}
		runtime.GC()
		start := time.Now()
		replicas = make([]*server.MemStore, storeReplicas)
		for i := range replicas {
			replicas[i] = server.NewMemStore()
		}
		var err error
		if topo, err = openTopology(replicas, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	refs, err := references(cfg, out)
	if err != nil {
		topo.close()
		return nil, err
	}
	clients := min(maxClients, runtime.NumCPU())
	ld := &load{cfg: cfg, refs: refs, replicas: replicas, clients: clients, topo: topo, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, IdleConnTimeout: 90 * time.Second},
		Timeout:   time.Minute,
	}}
	defer func() { ld.topo.close() }()
	defer ld.http.CloseIdleConnections()

	// measure runs whole rounds for d and returns the time the clients
	// were loading the system (restarts excluded: their cost is
	// server.restart_ms) and the iterations completed in it.
	measure := func(d time.Duration, ops *opLog, ct *clusterTrace) (time.Duration, int, error) {
		ld.ops, ld.ct = ops, ct
		start := time.Now()
		var loaded time.Duration
		iterations := 0
		for time.Since(start) < d || iterations == 0 {
			n, busy, err := ld.round()
			if err != nil {
				return 0, 0, err
			}
			iterations += n
			loaded += busy
		}
		return loaded, iterations, nil
	}
	if !cfg.trace {
		if out.wall, out.iterations, err = measure(cfg.seconds, out.ops, nil); err != nil {
			return nil, err
		}
	} else {
		if out.wall, out.iterations, err = measure(cfg.seconds/3, out.ops, nil); err != nil {
			return nil, err
		}
		ct := &clusterTrace{tracer: &tracer{}, counts: newTally()}
		traced := newOpLog()
		// Rebuild the topology with timing middleware and the timed store.
		if err := ld.restart(ct); err != nil {
			return nil, err
		}
		if _, _, err := measure(cfg.seconds-cfg.seconds/3, traced, ct); err != nil {
			return nil, err
		}
		out.layers["trace.overhead_ms"] = median(traced.sorted("mine")) - median(out.ops.sorted("mine"))
		out.ops.absorb("traced-", traced)
		ct.layerMetrics(out)
	}
	out.mismatches = append(out.mismatches, ld.mismatches...)
	out.notes = append(out.notes, ld.spreadProbe())
	out.notes = append(out.notes, fmt.Sprintf("%d clients; sessions per shard in the last round: %v; every mine, resume and history compared with core.Miner on %d datasets",
		clients, ld.placement, datasetPool))
	return out, nil
}

// reference is what core.Miner, run directly, mines on one dataset:
// every iteration's location pattern, in wire form.
type reference struct {
	seed int64
	wire [][]byte // per iteration: the location's PatternJSON
	hist []byte   // the full history after the last iteration
}

// references mines every pool dataset directly with the same settings
// the server gives a default synthetic session. In a traced run the
// library loop is traced, and the two-step loop with spread search is run
// traced too: that measures the library layers on this workload's inputs
// outside the serving path.
func references(cfg config, out *outcome) ([]*reference, error) {
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	acc := newTally()
	var langMS []float64
	refs := make([]*reference, datasetPool)
	for i := range refs {
		seed := cfg.seed*1000 + int64(i) + 1
		ds := gen.Synthetic620(seed).DS
		start := time.Now()
		lang := engine.LanguageFor(ds, 4)
		lang.CondTargetStats()
		langMS = append(langMS, ms(time.Since(start)))
		acc.add("engine.conditions", float64(len(lang.Conds)))
		r := &sessionRunner{ds: ds, iterations: phase1Iterations + 1, ops: newOpLog(), tr: tr, acc: acc}
		_, locs, err := r.run()
		if err == nil && cfg.trace {
			// The Fig. 2 two-step loop on the same data measures the
			// spread search a spread preview would run.
			two := &sessionRunner{ds: ds, spread: true, iterations: phase1Iterations, ops: newOpLog(), tr: tr, acc: acc}
			_, _, err = two.run()
			out.mismatches = append(out.mismatches, two.mismatches...)
		}
		out.mismatches = append(out.mismatches, r.mismatches...)
		engine.EvictLanguage(ds)
		if err != nil {
			return nil, fmt.Errorf("reference mining on synthetic seed %d: %w", seed, err)
		}
		ref := &reference{seed: seed}
		var hist []server.PatternJSON
		for _, l := range locs {
			loc := locationWire(ds, l)
			hist = append(hist, *loc)
			b, _ := json.Marshal(loc)
			ref.wire = append(ref.wire, b)
		}
		ref.hist, _ = json.Marshal(hist)
		refs[i] = ref
	}
	if cfg.trace {
		libraryLayers(out, acc, attribute(tr.snapshot()))
		out.layers["engine.language_build_ms"] = median(sortedCopy(langMS))
		out.layers["engine.conditions"] = acc.mean("engine.conditions")
	}
	return refs, nil
}

// locationWire gives a location pattern the wire form the server
// answers with, so served and directly mined patterns compare as bytes.
func locationWire(ds *dataset.Dataset, loc *pattern.Location) *server.PatternJSON {
	return &server.PatternJSON{
		Kind: "location", Intention: loc.Intention.Format(ds), Size: loc.Size(),
		SI: loc.SI, IC: loc.IC, DL: loc.DL, Mean: loc.Mean,
	}
}

// topology is one incarnation of the served system: the store over the
// replicas, the shards, and the router in front.
type topology struct {
	store  *repstore.Replicated[server.Snapshot]
	shards []*server.Server
	router *cluster.Router
	urls   map[string]string // shard id → base URL
	base   string            // router base URL
	https  []*httpServer
}

// httpServer is one loopback listener and the goroutine serving it.
type httpServer struct {
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &httpServer{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

func (hs *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.srv.Shutdown(ctx); err != nil {
		_ = hs.srv.Close()
	}
	<-hs.done
}

// openTopology opens the quorum store over the replicas with the
// settings server.NewReplicatedDirStore gives its directories (majority
// write quorum, 30 s anti-entropy sweep), builds the shards and the
// router, and runs the router's first probe sweep. With a non-nil ct
// the router and shard handlers are wrapped in timing middleware and
// the store in a timing decorator.
func openTopology(replicas []*server.MemStore, ct *clusterTrace) (*topology, error) {
	members := make([]repstore.Member[server.Snapshot], len(replicas))
	for i, r := range replicas {
		members[i] = repstore.Member[server.Snapshot]{ID: fmt.Sprintf("replica-%d", i), Store: r}
	}
	st, err := repstore.New(repstore.Config[server.Snapshot]{
		ID:            func(s *server.Snapshot) string { return s.ID },
		Progress:      (*server.Snapshot).ProgressKey,
		Verify:        (*server.Snapshot).Verify,
		NotFound:      server.ErrNotFound,
		Corrupt:       server.ErrCorrupt,
		SweepInterval: 30 * time.Second,
	}, members...)
	if err != nil {
		return nil, err
	}
	t := &topology{store: st, urls: map[string]string{}}
	var store server.Store = st
	if ct != nil {
		store = &timedStore{Replicated: st, ct: ct}
	}
	var shards []cluster.Shard
	for i := 0; i < clusterShards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		srv := server.NewWithOptions(server.Options{Store: store, ShardID: id})
		t.shards = append(t.shards, srv)
		hs, url, err := serve(ct.wrap("shard", srv.Handler()))
		if err != nil {
			t.close()
			return nil, err
		}
		t.https = append(t.https, hs)
		t.urls[id] = url
		shards = append(shards, cluster.Shard{ID: id, URL: url})
	}
	router, err := cluster.NewRouter(cluster.Options{Shards: shards})
	if err != nil {
		t.close()
		return nil, err
	}
	router.Start()
	t.router = router // Close is only valid after Start
	hs, url, err := serve(ct.wrap("router", router.Handler()))
	if err != nil {
		t.close()
		return nil, err
	}
	t.https = append(t.https, hs)
	t.base = url + "/api/v1"
	return t, nil
}

// close stops everything the topology started and waits for it.
func (t *topology) close() {
	if t.router != nil {
		t.router.Close()
	}
	for i := len(t.https) - 1; i >= 0; i-- {
		t.https[i].stop()
	}
	for _, s := range t.shards {
		s.Close()
	}
	t.store.Close()
}

// load drives the topology: closed-loop clients, rounds of sessions.
type load struct {
	cfg        config
	refs       []*reference
	replicas   []*server.MemStore
	clients    int
	topo       *topology
	http       *http.Client
	ops        *opLog
	ct         *clusterTrace // nil: untraced
	roundNo    int
	mu         sync.Mutex
	mismatches []string
	placement  map[string]int
}

func (ld *load) mismatch(format string, args ...any) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if len(ld.mismatches) < maxErrors {
		ld.mismatches = append(ld.mismatches, fmt.Sprintf(format, args...))
	}
}

// restart rebuilds the router, shards and quorum store over the same
// replicas, as a restart of every serving process would.
func (ld *load) restart(ct *clusterTrace) error {
	start := time.Now()
	ld.topo.close()
	topo, err := openTopology(ld.replicas, ct)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	ld.topo = topo
	if ct != nil {
		ct.counts.add("server.restart_ms", ms(time.Since(start)))
	}
	return nil
}

// round runs phase 1, a restart and phase 2 over a fresh set of session
// ids. It returns the number of mine → commit iterations completed and
// the time spent in the two phases.
func (ld *load) round() (int, time.Duration, error) {
	ld.roundNo++
	ids := make([]string, sessionsPerRound)
	for i := range ids {
		ids[i] = fmt.Sprintf("b%d-r%d-%04d", ld.cfg.seed, ld.roundNo, i)
	}
	ld.placement = map[string]int{}
	start := time.Now()
	n1 := ld.parallel(ids, ld.phase1)
	busy := time.Since(start)
	if err := ld.restart(ld.ct); err != nil {
		return 0, 0, err
	}
	start = time.Now()
	n2 := ld.parallel(ids, ld.phase2)
	return n1 + n2, busy + time.Since(start), nil
}

// parallel runs fn over ids with ld.clients closed-loop clients, client
// c taking every ids[i] with i%clients == c; it sums fn's iterations.
func (ld *load) parallel(ids []string, fn func(i int, id string) int) int {
	counts := make([]int, ld.clients)
	var wg sync.WaitGroup
	for c := 0; c < ld.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ids); i += ld.clients {
				counts[c] += fn(i, ids[i])
			}
		}(c)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// phase1 creates a session and runs phase1Iterations mine → commit
// iterations on it, leaving it open.
func (ld *load) phase1(i int, id string) int {
	ref := ld.refs[i%len(ld.refs)]
	var info server.SessionInfo
	shard, err := ld.call("create", id, "POST", "/sessions", server.CreateRequest{ID: id, Dataset: "synthetic", Seed: ref.seed}, &info)
	if err != nil {
		return 0
	}
	ld.mu.Lock()
	ld.placement[shard]++
	ld.mu.Unlock()
	done := 0
	for it := 0; it < phase1Iterations; it++ {
		if !ld.mine("mine", id, ref, it) || !ld.commit(id, it+1) {
			return done
		}
		done++
	}
	return done
}

// phase2 resumes a session after the restart: its first mine restores
// it from the store, then commit, history and delete.
func (ld *load) phase2(i int, id string) int {
	ref := ld.refs[i%len(ld.refs)]
	if !ld.mine("resume", id, ref, phase1Iterations) || !ld.commit(id, phase1Iterations+1) {
		return 0
	}
	var hist []server.PatternJSON
	if _, err := ld.call("history", id, "GET", "/sessions/"+id+"/history", nil, &hist); err == nil {
		if got, _ := json.Marshal(hist); !bytes.Equal(got, ref.hist) {
			ld.mismatch("session %s: history differs from core.Miner's", id)
		}
	}
	_, _ = ld.call("delete", id, "DELETE", "/sessions/"+id, nil, nil)
	return 1
}

// mine runs one mine and compares its pattern with core.Miner's
// iteration it on the same dataset.
func (ld *load) mine(op, id string, ref *reference, it int) bool {
	var resp server.MineResponse
	shard, err := ld.call(op, id, "POST", "/sessions/"+id+"/mine", nil, &resp)
	if err != nil {
		return false
	}
	if got, _ := json.Marshal(resp.Location); !bytes.Equal(got, ref.wire[it]) {
		ld.mismatch("session %s %s %d: served pattern differs from core.Miner's:\n    got  %s\n    want %s",
			id, op, it, got, ref.wire[it])
	}
	if ld.ct != nil {
		ld.ct.countMine(&resp)
		ld.ct.jobSpans(ld, shard, id, resp.Job)
	}
	return true
}

func (ld *load) commit(id string, want int) bool {
	var resp struct {
		Iterations int `json:"iterations"`
	}
	if _, err := ld.call("commit", id, "POST", "/sessions/"+id+"/commit", nil, &resp); err != nil {
		return false
	}
	if resp.Iterations != want {
		ld.mismatch("session %s: commit reports %d iterations, want %d", id, resp.Iterations, want)
	}
	return true
}

// call makes one request through the router and records it as op. A
// transport error or a non-2xx answer fails the operation, and nothing
// is retried. It returns the shard that served the request.
func (ld *load) call(op, id, method, path string, body, into any) (string, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ld.topo.base+path, rd)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	var root int
	if ld.ct != nil {
		root = ld.ct.begin(op, id, -1)
	}
	start := time.Now()
	raw, shard, err := roundTrip(ld.http, req)
	d := time.Since(start)
	if ld.ct != nil {
		ld.ct.finish(root)
	}
	if err == nil && into != nil {
		if uerr := json.Unmarshal(raw, into); uerr != nil {
			err = fmt.Errorf("decoding %s answer: %w", op, uerr)
		}
	}
	ld.ops.record(op, d, err)
	return shard, err
}

// roundTrip sends req and reads the whole answer; a non-2xx status is
// an error carrying the body verbatim.
func roundTrip(c *http.Client, req *http.Request) ([]byte, string, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, resp.Header.Get("X-Sisd-Shard"), nil
}

// clusterTrace records the spans of a traced serve-cluster run.
type clusterTrace struct {
	*tracer
	counts *tally
}

// wrap times every request h serves as a span of layer; nil ct returns
// h unchanged, which is the untraced topology.
func (ct *clusterTrace) wrap(layer string, h http.Handler) http.Handler {
	if ct == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := sessionKey(r)
		if key == "" {
			h.ServeHTTP(w, r) // probes and fan-outs: no session
			return
		}
		i := ct.begin(layer, key, -1)
		h.ServeHTTP(w, r)
		ct.finish(i)
	})
}

// countMine tallies the search counters a mine response reports.
func (ct *clusterTrace) countMine(resp *server.MineResponse) {
	ct.counts.add("search.evaluated", float64(resp.Evaluated))
	ct.counts.add("search.bound_evals", float64(resp.BoundEvals))
	ct.counts.add("search.pruned", float64(resp.Pruned))
}

// jobSpans reads the mine's job record straight from the shard that ran
// it (job ids are per shard) and records its queue wait and run time.
func (ct *clusterTrace) jobSpans(ld *load, shard, id, job string) {
	url, ok := ld.topo.urls[shard]
	if !ok || job == "" {
		return
	}
	req, err := http.NewRequest("GET", url+"/api/v1/jobs/"+job, nil)
	if err != nil {
		return
	}
	raw, _, err := roundTrip(ld.http, req)
	var inf jobs.Info
	if err != nil || json.Unmarshal(raw, &inf) != nil || inf.Started == nil || inf.Finished == nil {
		ct.counts.add("jobs.unread", 1)
		return
	}
	ct.add(span{layer: "jobs.queue", key: id, start: inf.Created.UnixNano(), end: inf.Started.UnixNano(), parent: -1})
	ct.add(span{layer: "jobs.run", key: id, start: inf.Started.UnixNano(), end: inf.Finished.UnixNano(), parent: -1})
}

// timedStore decorates the shared store with spans. Embedding keeps the
// replicated store's other methods (List, replica health) visible to
// the server unchanged.
type timedStore struct {
	*repstore.Replicated[server.Snapshot]
	ct *clusterTrace
}

func (s *timedStore) Put(snap *server.Snapshot) error {
	i := s.ct.begin("store.put", snap.ID, -1)
	err := s.Replicated.Put(snap)
	s.ct.finish(i)
	s.observe(err)
	s.ct.counts.add("store.put_bytes", float64(len(snap.Model)))
	return err
}

func (s *timedStore) Get(id string) (*server.Snapshot, error) {
	i := s.ct.begin("store.get", id, -1)
	snap, err := s.Replicated.Get(id)
	s.ct.finish(i)
	s.observe(err)
	return snap, err
}

func (s *timedStore) Delete(id string) (bool, error) {
	i := s.ct.begin("store.delete", id, -1)
	ok, err := s.Replicated.Delete(id)
	s.ct.finish(i)
	s.observe(err)
	return ok, err
}

// observe counts store failures; not-found answers are the expected
// outcome of create's id probe, not failures.
func (s *timedStore) observe(err error) {
	s.ct.counts.add("store.ops", 1)
	if err != nil && !errors.Is(err, server.ErrNotFound) {
		s.ct.counts.add("store.failures", 1)
	}
}

// sessionKey is the session a request is about: the id in a session
// route's path, or in a create request's body (which it leaves
// readable). Other requests (probes, listings) belong to no session.
func sessionKey(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/api/v1/sessions")
	switch {
	case !ok:
		return ""
	case rest == "" && r.Method == "POST":
		raw, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(raw))
		var req server.CreateRequest
		_ = json.Unmarshal(raw, &req)
		return req.ID
	}
	id, _, _ := strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	return id
}

// spanLevel places a layer on a request's blocking path: the client's
// operation, then the router, the shard, and the store calls and job
// phases inside the shard's handler.
func spanLevel(layer string) int {
	switch {
	case layer == "router":
		return 1
	case layer == "shard":
		return 2
	case strings.HasPrefix(layer, "store.") || strings.HasPrefix(layer, "jobs."):
		return 3
	}
	return 0
}

// orphan marks a span no request caused, such as the store write of an
// LRU eviction that another session's create triggered.
const orphan = -2

// link sets every non-root span's parent: the span one level up with the
// same session that overlaps it most. Within one session at most one
// request is in flight, so session plus overlap identifies the cause.
func link(spans []span) {
	byKey := map[string][]int{}
	for i, s := range spans {
		byKey[s.key] = append(byKey[s.key], i)
	}
	for i := range spans {
		lv := spanLevel(spans[i].layer)
		if lv == 0 {
			continue
		}
		spans[i].parent = orphan
		best := int64(0)
		for _, j := range byKey[spans[i].key] {
			if spanLevel(spans[j].layer) != lv-1 {
				continue
			}
			if ov := min(spans[i].end, spans[j].end) - max(spans[i].start, spans[j].start); ov > best {
				best, spans[i].parent = ov, j
			}
		}
	}
}

// layerMetrics fills the serving layers' metrics from the linked spans,
// checks that every operation's breakdown adds up, and overrides the
// search counters with the ones the shards reported.
func (ct *clusterTrace) layerMetrics(out *outcome) {
	spans := ct.snapshot()
	link(spans)
	bd := attribute(spans)
	var clientSelf int64
	clientCalls := 0
	for root, n := range bd.roots {
		clientSelf += bd.self[root]
		clientCalls += n
	}
	out.layers["http.client_ms"] = meanMS(clientSelf, clientCalls)
	out.layers["cluster.proxy_ms"] = meanMS(bd.self["router"], bd.calls["router"])
	for _, op := range []string{"create", "mine", "resume", "commit", "history", "delete"} {
		a := bd.byRoot[op+"/shard"]
		out.layers["server.handler_ms."+op] = meanMS(a.dur, a.calls)
	}
	a := bd.byRoot["resume/shard"]
	out.layers["server.restore_ms"] = meanMS(a.self, a.calls)
	orphans := 0
	for metric, layer := range map[string]string{
		"jobs.queue_wait_ms": "jobs.queue", "jobs.run_ms": "jobs.run",
		"store.put_ms": "store.put", "store.get_ms": "store.get", "store.delete_ms": "store.delete",
	} {
		var total int64
		n := 0
		for _, s := range spans {
			if s.layer == layer {
				total += s.dur()
				n++
				if s.parent == orphan {
					orphans++
				}
			}
		}
		out.layers[metric] = meanMS(total, n)
	}
	out.layers["store.ops"] = ct.counts.total("store.ops")
	out.layers["store.failures"] = ct.counts.total("store.failures")
	out.layers["store.put_bytes"] = ct.counts.mean("store.put_bytes")
	out.layers["server.restart_ms"] = ct.counts.mean("server.restart_ms")
	for _, name := range []string{"search.evaluated", "search.bound_evals", "search.pruned"} {
		out.layers[name] = ct.counts.mean(name)
	}
	out.layers["search.prune_ratio"] = ratio(ct.counts.total("search.pruned"), ct.counts.total("search.bound_evals"))
	out.notes = append(out.notes, "served "+ct.counts.spreadNote("search.bound_evals"), "served "+ct.counts.spreadNote("search.pruned"))
	out.notes = append(out.notes, fmt.Sprintf("serving trace: %d store/job spans caused by no request (LRU evictions), %v job records unread",
		orphans, ct.counts.total("jobs.unread")))
	out.notes = append(out.notes, traceNotes(bd)...)
	if bd.violations > 0 {
		out.mismatches = append(out.mismatches, fmt.Sprintf("trace check: %d served operations' self times exceed their wall time beyond tolerance", bd.violations))
	}
}

// spreadProbe asks for one spread preview through the router on a
// throwaway session, outside the measured load, and reports whether it
// came back. It records the router defect that keeps the workload's
// mines location-only, so a fix shows in the report.
func (ld *load) spreadProbe() string {
	id := fmt.Sprintf("b%d-probe", ld.cfg.seed)
	post := func(path string, body any) ([]byte, error) {
		b, _ := json.Marshal(body)
		req, err := http.NewRequest("POST", ld.topo.base+path, bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		raw, _, err := roundTrip(ld.http, req)
		return raw, err
	}
	if _, err := post("/sessions", server.CreateRequest{ID: id, Dataset: "synthetic", Seed: ld.refs[0].seed}); err != nil {
		return fmt.Sprintf("spread probe: create failed: %v", err)
	}
	defer func() {
		if req, err := http.NewRequest("DELETE", ld.topo.base+"/sessions/"+id, nil); err == nil {
			_, _, _ = roundTrip(ld.http, req)
		}
	}()
	raw, err := post("/sessions/"+id+"/mine", server.MineRequest{Spread: true})
	var resp server.MineResponse
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	if err != nil {
		return fmt.Sprintf("spread probe: mine failed: %v", err)
	}
	return fmt.Sprintf("spread probe: a spread preview requested through the router came back: %v", resp.Spread != nil)
}
