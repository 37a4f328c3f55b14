package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// conn is one keep-alive HTTP connection of the load generator. Each of
// the two connections owns its streams, so it is the only writer of
// their state and can predict every answer.
type conn struct {
	c    *http.Client
	base string
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: "http://" + addr}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out. Any
// other status is an error: the run counts it as a failed operation.
func (c *conn) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// tally counts operations attempted and failed, by kind. A check is an
// operation of its own: a failed check is a failed operation.
type tally struct {
	mu        sync.Mutex
	attempted map[string]int
	failed    map[string]int
	checksBad int
	msgs      []string
}

func newTally() *tally { return &tally{attempted: map[string]int{}, failed: map[string]int{}} }

// op records one request of the given kind; it returns err == nil.
func (t *tally) op(kind string, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted[kind]++
	if err != nil {
		t.failed[kind]++
		t.note(kind, err)
	}
	return err == nil
}

// check records one correctness check.
func (t *tally) check(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted["check:"+kind]++
	if err != nil {
		t.failed["check:"+kind]++
		t.checksBad++
		t.note("check:"+kind, err)
	}
}

func (t *tally) note(kind string, err error) {
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, kind+": "+err.Error())
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.attempted {
		attempted += n
	}
	for _, n := range t.failed {
		failed += n
	}
	return attempted, failed
}

func (t *tally) report(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make([]string, 0, len(t.attempted))
	for k := range t.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-26s attempted %7d  failed %d\n", k, t.attempted[k], t.failed[k])
	}
	for _, m := range t.msgs {
		fmt.Fprintln(w, "  FAIL", m)
	}
}

// model is the benchmark's own copy of one stream.
type model struct {
	all   []float64 // every point sent, in order
	since int       // index into all where the daemon's whole-stream summaries start
}

func (m *model) window(n int) []float64 { return m.all[max(0, len(m.all)-n):] }

func (m *model) windowStart(n int) int64 { return int64(max(0, len(m.all)-n)) }

// run is the state of one untraced run of one workload.
type run struct {
	w      *workload
	in     *inputs
	bin    string
	work   string
	t      *tally
	models map[string]*model
	opts   map[string]float64 // sampled windows' optimal SSE at the end of the measured phase

	slices [][]slice // the measured phase's slices, by segment and position
}

// slice is what one slice of the measured phase measured.
type slice struct {
	writeMS, queryMS []float64 // latencies of the timed requests
	elapsed          time.Duration
	points           int     // points acknowledged
	steal            float64 // share of the machine's CPU time its host took during the slice
}

func (r *run) dataDir(i int) string { return filepath.Join(r.work, fmt.Sprintf("setup-%d", i), "data") }

// forConns runs fn once per connection, concurrently, and waits.
func (r *run) forConns(addr string, fn func(c *conn, i int)) {
	var wg sync.WaitGroup
	for i := range r.in.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			fn(c, i)
		}(i)
	}
	wg.Wait()
}

// write sends one ingest batch and checks its acknowledgement.
func (r *run) write(c *conn, key string, vs []float64, kind string) (time.Duration, bool) {
	m := r.models[key]
	var a ackResp
	t0 := time.Now()
	err := c.do(http.MethodPost, "/v1/streams/"+key+"/ingest", encodeBatch(vs), &a)
	d := time.Since(t0)
	if !r.t.op(kind, err) {
		return d, false
	}
	m.all = append(m.all, vs...)
	r.t.check("ack", checkAck(a, len(vs), int64(len(m.all))))
	return d, true
}

// histogram fetches key's histogram and checks it against the window.
func (r *run) histogram(c *conn, key string) (histResp, bool) {
	var h histResp
	if !r.t.op("histogram", c.do(http.MethodGet, "/v1/streams/"+key+"/histogram", nil, &h)) {
		return h, false
	}
	m := r.models[key]
	r.t.check("histogram", checkHistogram(h, m.window(r.w.window), r.w.buckets, m.windowStart(r.w.window)))
	return h, true
}

// setup starts a daemon on a fresh data directory, prefills every
// stream to a full window and restarts the daemon gracefully, so that a
// checkpoint covers the prefill.
func (r *run) setup(i int) (*daemon, time.Duration, error) {
	dir := r.dataDir(i)
	if err := os.RemoveAll(filepath.Dir(dir)); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	r.models = map[string]*model{}
	for k := range r.in.prefill {
		r.models[k] = &model{}
	}
	t0 := time.Now()
	d, err := startDaemon(r.bin, r.w, dir)
	if err != nil {
		return nil, 0, err
	}
	r.forConns(d.addr, func(c *conn, i int) {
		for _, k := range r.in.conns[i] {
			pre := r.in.prefill[k]
			for off := 0; off < len(pre); off += prefillBatch {
				r.write(c, k, pre[off:min(off+prefillBatch, len(pre))], "prefill")
			}
		}
	})
	if err := d.stop(); err != nil {
		return nil, 0, err
	}
	d, err = startDaemon(r.bin, r.w, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, m := range r.models {
		m.since = len(m.all)
	}
	return d, time.Since(t0), nil
}

// measure runs one slice of the measured phase: each connection writes
// its streams round by round, per-stream writes j0 to j1-1, and follows
// every queryEvery-th write of a stream with a range query on it. Each
// query is then verified against a histogram read that is not timed.
// The connections stay open from slice to slice of a segment.
func (r *run) measure(conns []*conn, j0, j1 int) slice {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var sl slice
	sm := startSteal()
	t0 := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.measureConn(c, i, j0, j1, &mu, &sl)
		}()
	}
	wg.Wait()
	sl.elapsed = time.Since(t0)
	sl.steal = sm.share()
	return sl
}

// measureConn is one connection's part of a slice; it adds its
// latencies and points to sl under mu.
func (r *run) measureConn(c *conn, i, j0, j1 int, mu *sync.Mutex, sl *slice) {
	var wl, ql []float64
	points := 0
	for j := j0; j < j1; j++ {
		for _, k := range r.in.order[i][j] {
			d, ok := r.write(c, k, r.in.batches[k][j], "write")
			wl = append(wl, ms(d))
			if ok {
				points += r.w.batch
			}
			if !ok || j%r.w.queryEvery != r.w.queryEvery-1 {
				continue
			}
			lohi := r.in.queries[k][j/r.w.queryEvery]
			var q queryResp
			path := fmt.Sprintf("/v1/streams/%s/query?lo=%d&hi=%d", k, lohi[0], lohi[1])
			t1 := time.Now()
			err := c.do(http.MethodGet, path, nil, &q)
			ql = append(ql, ms(time.Since(t1)))
			if !r.t.op("query", err) {
				continue
			}
			if h, ok := r.histogram(c, k); ok {
				r.t.check("range", checkRange(q.Estimate, lohi[0], lohi[1], r.models[k].window(r.w.window), h))
			}
		}
	}
	mu.Lock()
	sl.writeMS = append(sl.writeMS, wl...)
	sl.queryMS = append(sl.queryMS, ql...)
	sl.points += points
	mu.Unlock()
}

// calmSlices pools the slices measured while the host took the least
// CPU time from the machine: at every position within a segment, the
// calmest quarter of the segments' slices there (ties in order). On a
// shared host a stolen vCPU stalls whatever runs on it for milliseconds,
// so the slices it hit measure the host, and their p99 most of all; a
// change to the program moves every slice alike. Selecting by position
// keeps the pool's make-up the same on every run, since the whole-stream
// summaries grow over a segment. Without steal accounting (all shares
// 0) the pool is the first quarter of the segments.
func (r *run) calmSlices() slice {
	var pool slice
	keep := (len(r.slices) + 3) / 4
	for p := 0; p < slicesPerSegment; p++ {
		at := make([]slice, len(r.slices))
		for i, seg := range r.slices {
			at[i] = seg[p]
		}
		sort.SliceStable(at, func(a, b int) bool { return at[a].steal < at[b].steal })
		for _, s := range at[:keep] {
			pool.writeMS = append(pool.writeMS, s.writeMS...)
			pool.queryMS = append(pool.queryMS, s.queryMS...)
			pool.elapsed += s.elapsed
			pool.points += s.points
			pool.steal += s.steal / float64(keep*slicesPerSegment)
		}
	}
	return pool
}

// stealMeter measures the share of the machine's CPU time that its
// host took (the "steal" of a virtual machine) over an interval.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t := cpuSteal()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuSteal()
	return float64(s-m.steal) / float64(max(t-m.total, 1))
}

// calmMedian is the median of the calmer half of the values: the
// ceil(n/2) measured while the host took the least CPU time from the
// machine (ties in order; see calmSlices). It serves the set-ups and the
// recoveries, each a single timing.
func calmMedian(vs, steal []float64) float64 {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	calm := make([]float64, (len(vs)+1)/2)
	for i := range calm {
		calm[i] = vs[idx[i]]
	}
	return median(calm)
}

// verify checks every stream's statistics and histogram, the sampled
// streams' quantiles, and the SSE of the sampled streams against their
// optimum. It returns the histograms read and the mean SSE/OPT of the
// sample. The whole-stream summaries hold the points since the last
// checkpoint, both before a crash and after its replay. The window is
// the same before and after a crash, so the optima computed before it
// (opts, filled when nil) serve after it. After a crash recovery
// (recovered) the incremental engine's histogram is held only to
// SSE >= OPT: its first pass after recovery repairs a cover older than
// one fallback period, outside the staleness envelope (see README.md).
func (r *run) verify(addr string, sample []string, recovered bool) (map[string]histResp, float64) {
	hists := map[string]histResp{}
	c := newConn(addr)
	defer c.close()
	for _, k := range sortedKeys(r.models) {
		m := r.models[k]
		var s statsResp
		if r.t.op("stats", c.do(http.MethodGet, "/v1/streams/"+k+"/stats", nil, &s)) {
			r.t.check("stats", checkStats(s, int64(len(m.all)), len(m.window(r.w.window)), m.all[m.since:]))
		}
		if h, ok := r.histogram(c, k); ok {
			hists[k] = h
		}
	}
	if r.opts == nil {
		r.opts = r.optima(sample)
	}
	ratio := 0.0
	for _, k := range sample {
		m := r.models[k]
		sorted := append([]float64(nil), m.all[m.since:]...)
		sort.Float64s(sorted)
		for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			var q quantileResp
			path := "/v1/streams/" + k + "/quantile?phi=" + url.QueryEscape(strconv.FormatFloat(phi, 'g', -1, 64))
			if r.t.op("quantile", c.do(http.MethodGet, path, nil, &q)) {
				r.t.check("quantile", checkQuantile(q, sorted))
			}
		}
		h, ok := hists[k]
		if !ok {
			continue
		}
		opt := r.opts[k]
		bound := r.w.sseBound()
		if recovered && r.w.incremental {
			bound = math.Inf(1)
		}
		err := checkSSEBound(h.SSE, opt, bound)
		if err != nil && r.w.incremental && !recovered {
			err = r.trailingBound(k, h.SSE)
		}
		r.t.check("sse-bound", err)
		ratio += h.SSE / opt
	}
	return hists, ratio / float64(len(sample))
}

// optima computes the sampled windows' optimal SSE, one DP per stream,
// on as many goroutines as the machine has CPUs (the daemon is idle).
func (r *run) optima(sample []string) map[string]float64 {
	opts := make([]float64, len(sample))
	var wg sync.WaitGroup
	n := runtime.NumCPU()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sample); i += n {
				opts[i] = optSSE(r.models[sample[i]].window(r.w.window), r.w.buckets)
			}
		}(g)
	}
	wg.Wait()
	out := make(map[string]float64, len(sample))
	for i, k := range sample {
		out[k] = opts[i]
	}
	return out
}

// trailingBound is the incremental engine's guarantee: SSE is at most
// (1+delta)^(4B) times the largest optimum over the windows of the last
// fallback period (K = 1/(2 delta) writes of the stream).
func (r *run) trailingBound(key string, sse float64) error {
	m := r.models[key]
	k := int(1 / (2 * r.w.delta))
	worst := 0.0
	for j := 0; j <= k; j++ {
		end := len(m.all) - j*r.w.batch
		if end < r.w.window {
			break
		}
		worst = math.Max(worst, optSSE(m.all[end-r.w.window:end], r.w.buckets))
	}
	if sse > r.w.sseBound()*worst*(1+1e-9)+1e-6 {
		return fmt.Errorf("SSE %v above %.4g x the largest trailing optimum %v", sse, r.w.sseBound(), worst)
	}
	return nil
}

// sampleStreams picks n streams by seed.
func sampleStreams(keys []string, n int, seed uint64) []string {
	s := append([]string(nil), keys...)
	sort.Strings(s)
	g := newRNG(seed, "sample")
	for i := len(s) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	return s[:min(n, len(s))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runUntraced runs one workload against the real daemon and returns the
// end-to-end metrics.
func runUntraced(bin, work string, w *workload, seed uint64, seconds int, t *tally) (map[string]float64, error) {
	r := &run{w: w, in: makeInputs(w, seed, w.segments(seconds)), bin: bin, work: work, t: t}
	var keys []string
	for _, ks := range r.in.conns {
		keys = append(keys, ks...)
	}
	sample := sampleStreams(keys, w.sample, seed)

	// Phases 1-2: set-up, several times; the last one is kept.
	var setupS, setupSteal []float64
	var d *daemon
	for i := 0; i < w.setups; i++ {
		var dur time.Duration
		var err error
		sm := startSteal()
		if d, dur, err = r.setup(i); err != nil {
			return nil, err
		}
		setupS = append(setupS, dur.Seconds())
		setupSteal = append(setupSteal, sm.share())
		if i < w.setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Dir(r.dataDir(i))); err != nil {
				d.kill()
				return nil, err
			}
		}
	}
	dir := r.dataDir(w.setups - 1)
	defer func() { d.kill() }()
	ckpt, err := checkpointBytes(dir)
	if err != nil {
		return nil, err
	}

	// Phase 3: measured, segment by segment. Before every segment after
	// the first the daemon restarts gracefully (the set-up's restart
	// precedes the first), so its checkpoint covers everything before the
	// segment. The whole-stream summaries then start empty in every
	// segment, as they do after a restart, so every segment does the same
	// work whatever --seconds is, and the crash below leaves a WAL tail of
	// exactly one segment.
	per := w.sliceRounds() * w.queryEvery // per-stream writes in a slice
	rss := 0.0
	for g := 0; g < r.in.segments; g++ {
		if g > 0 {
			hwm, err := d.peakRSSMB()
			if err != nil {
				return nil, err
			}
			rss = math.Max(rss, hwm)
			if err := d.stop(); err != nil {
				return nil, err
			}
			if d, err = startDaemon(bin, w, dir); err != nil {
				return nil, err
			}
			for _, m := range r.models {
				m.since = len(m.all)
			}
		}
		conns := make([]*conn, connections)
		for i := range conns {
			conns[i] = newConn(d.addr)
		}
		var seg []slice
		for p := 0; p < slicesPerSegment; p++ {
			j := (g*slicesPerSegment + p) * per
			seg = append(seg, r.measure(conns, j, j+per))
		}
		for _, c := range conns {
			c.close()
		}
		r.slices = append(r.slices, seg)
	}
	for g, seg := range r.slices {
		fmt.Fprintf(os.Stderr, "segment %d:", g)
		for _, s := range seg {
			fmt.Fprintf(os.Stderr, "  %.2fs steal %4.1f%% w %.2f/%.2f q %.2f/%.2f", s.elapsed.Seconds(), 100*s.steal,
				percentile(s.writeMS, 0.5), percentile(s.writeMS, 0.99), percentile(s.queryMS, 0.5), percentile(s.queryMS, 0.99))
		}
		fmt.Fprintln(os.Stderr)
	}
	calm := r.calmSlices()
	fmt.Fprintf(os.Stderr, "calm pool: %d writes, %d queries, %.3f s, steal %.2f%%\n",
		len(calm.writeMS), len(calm.queryMS), calm.elapsed.Seconds(), 100*calm.steal)
	fmt.Fprintf(os.Stderr, "set-ups %.3v s, steal %.2v\n", setupS, setupSteal)

	// Phase 4: checks.
	before, sseRatio := r.verify(d.addr, sample, false)
	last, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rss = math.Max(rss, last)

	// Phases 5-6: crash, timed recovery, checks; repeated over the same
	// WAL tail (recovery does not checkpoint, so every restart replays
	// exactly the last segment's writes).
	var recS, recSteal []float64
	for i := 0; i < w.recoveries; i++ {
		d.kill()
		sm := startSteal()
		t0 := time.Now()
		if d, err = startDaemon(bin, w, dir); err != nil {
			return nil, err
		}
		recS = append(recS, time.Since(t0).Seconds())
		recSteal = append(recSteal, sm.share())
		if i > 0 {
			continue
		}
		after, _ := r.verify(d.addr, sample, true)
		if !w.incremental {
			for k, h := range before {
				if g, ok := after[k]; ok {
					r.t.check("recovered-histogram", checkSameHistogram(g, h))
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "recoveries %.3v s, steal %.2v\n", recS, recSteal)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}

	return map[string]float64{
		"setup_s":             calmMedian(setupS, setupSteal),
		"ingest_points_per_s": float64(calm.points) / calm.elapsed.Seconds(),
		"ingest_p50_ms":       percentile(calm.writeMS, 0.50),
		"ingest_p99_ms":       percentile(calm.writeMS, 0.99),
		"query_p50_ms":        percentile(calm.queryMS, 0.50),
		"query_p99_ms":        percentile(calm.queryMS, 0.99),
		"recover_s":           calmMedian(recS, recSteal),
		"rss_peak_mb":         rss,
		"state_kb_per_stream": float64(ckpt) / 1024 / float64(w.streams),
		"sse_over_opt":        sseRatio,
	}, nil
}
