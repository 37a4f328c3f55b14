package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamhist/internal/checkpoint"
	"streamhist/internal/core"
	"streamhist/internal/faults"
	"streamhist/internal/obs"
	"streamhist/internal/quality"
	"streamhist/internal/server"
	"streamhist/internal/shard"
	"streamhist/internal/stream"
	"streamhist/internal/wal"
)

// The traced mode replays a workload's inputs in-process and times the
// calls into each layer from here, in the order the daemon's shard loop
// applies them (internal/shard process: WAL group commit, then the
// fixed window, agglom, GK, the value histogram, running stats and the
// auditor). It runs four passes over the same inputs:
//
//   - mirror, untraced and then traced: the layer calls themselves, with
//     the whole-stream summaries restarted after the prefill as the
//     daemon's graceful restart does; the difference between the two is
//     the tracing overhead;
//   - engine: the real shard.Engine, whose Ingest time less the
//     mirror's layer self times is the unattributed remainder, with a
//     prober timing no-op Views behind the work on each shard;
//   - server: the real server.Server, whose ServeHTTP time is the
//     handler time.
//
// Layers the workload's configuration does not use (incremental repair
// and auditing on the exact workloads) are still timed on the same
// inputs, as "shadow" spans outside the ingest path, so every per-layer
// metric is measured on every workload; shadow spans do not enter the
// ingest sum.

// span is one timed layer call.
type span struct {
	name       string
	tid        int
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the enclosing span, -1 for a root
}

// tracer keeps spans in memory. When off it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func (t *tracer) begin(name string, tid int) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, tid: tid, start: time.Since(t.t0), parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// rename renames an open span, once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].name = name
	}
}

// add records a finished root span measured elsewhere (another
// goroutine's call). Call only while no span is open.
func (t *tracer) add(name string, tid int, start time.Time, d time.Duration) {
	if t.on {
		s := start.Sub(t.t0)
		t.spans = append(t.spans, span{name: name, tid: tid, start: s, end: s + d, parent: -1})
	}
}

// layerStats aggregates spans by name: calls and self times (duration
// less the time covered by child spans).
type layerStats struct {
	calls int
	self  []float64 // microseconds, one per call
	total float64   // microseconds
}

func (t *tracer) byName() map[string]*layerStats {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		us := float64(self[i]) / float64(time.Microsecond)
		ls.calls++
		ls.self = append(ls.self, us)
		ls.total += us
	}
	return out
}

// writePerfetto writes the spans in the Chrome trace-event format, which
// Perfetto and chrome://tracing load.
func (t *tracer) writePerfetto(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		e := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.tid,
			Args: map[string]string{"id": fmt.Sprint(i)}}
		if s.parent >= 0 {
			e.Args["parent"] = fmt.Sprint(s.parent)
		}
		evs = append(evs, e)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Span track (tid) of each pass.
const (
	tidMirror = 1
	tidShadow = 2
	tidEngine = 3
	tidProbe  = 4
	tidServer = 5
)

// mirrorStream is one stream's summary set in the mirror, built as the
// daemon builds it, plus the shadow summaries for unused layers.
type mirrorStream struct {
	st        *shard.State
	shadowFW  *core.FixedWindow // incremental repair, on exact workloads
	shadowAud *quality.Auditor  // auditor, on workloads without -audit
}

// mirror drives the layers directly.
type mirror struct {
	w       *workload
	in      *inputs
	t       *tally
	tr      *tracer
	reg     *obs.Registry
	dir     string
	wals    [shards]*wal.WAL
	streams map[string]*mirrorStream
	models  map[string]*model
	scratch []byte
	vals    []float64

	walBytes int64        // bytes appended to the logs while tracing
	delta    coreCounters // the measured phase's core work
	auditCfg quality.Config
}

func keySeed(key string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int64(h.Sum64())
}

func newWindow(w *workload) (*core.FixedWindow, error) {
	fw, err := core.NewWithDelta(w.window, w.buckets, w.eps, w.delta)
	if err != nil {
		return nil, err
	}
	fw.SetIncrementalRebuild(w.incremental)
	return fw, nil
}

// newStream builds the daemon's summary set around fw, instrumented into
// the mirror's registry as the daemon instruments it.
func (m *mirror) newStream(key string, fw *core.FixedWindow) (*mirrorStream, error) {
	st, err := shard.NewState(fw)
	if err != nil {
		return nil, err
	}
	st.FW.SetRegistry(m.reg)
	st.Agg.SetRegistry(m.reg)
	ms := &mirrorStream{st: st}
	if m.w.audit {
		st.Aud = quality.NewAuditor(m.auditCfg, keySeed(key))
	} else {
		ms.shadowAud = quality.NewAuditor(m.auditCfg, keySeed(key))
	}
	return ms, nil
}

func newMirror(dir string, w *workload, in *inputs, t *tally, tr *tracer) (*mirror, error) {
	m := &mirror{w: w, in: in, t: t, tr: tr, reg: obs.NewRegistry(), dir: dir,
		streams: map[string]*mirrorStream{}, models: map[string]*model{},
		scratch: make([]byte, 64*1024), auditCfg: quality.Config{Interval: max(w.auditEvery, 256)}}
	for s := range m.wals {
		wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, fmt.Sprintf("shard-%04d", s)), Keyed: true,
			SyncEveryAppend: true, Metrics: m.reg})
		if err != nil {
			return nil, err
		}
		m.wals[s] = wl
	}
	for k := range in.prefill {
		fw, err := newWindow(w)
		if err != nil {
			return nil, err
		}
		ms, err := m.newStream(k, fw)
		if err != nil {
			return nil, err
		}
		m.streams[k] = ms
		m.models[k] = &model{}
	}
	return m, nil
}

func (m *mirror) close() {
	for _, w := range m.wals {
		if w != nil {
			_ = w.Close()
		}
	}
}

// ingest applies one write the way the shard loop does, with a span
// around every layer call.
func (m *mirror) ingest(key string, vs []float64) {
	tr := m.tr
	root := tr.begin("request.ingest", tidMirror)
	body := encodeBatch(vs)
	sp := tr.begin("stream.parse", tidMirror)
	vals, err := stream.AppendValues(m.vals[:0], bytes.NewReader(body), m.scratch)
	tr.end(sp)
	m.vals = vals
	if !m.t.op("write", err) {
		tr.end(root)
		return
	}
	ms, md := m.streams[key], m.models[key]
	st := ms.st
	sh := tr.begin("shard.ingest", tidMirror)
	w := m.wals[shardOf(key)]
	sp = tr.begin("wal.append_sync", tidMirror)
	size := w.SizeBytes()
	err = w.AppendBatch([]wal.KeyedRecord{{Key: key, Start: st.FW.Seen(), Values: vals}})
	if tr.on {
		m.walBytes += w.SizeBytes() - size
	}
	tr.end(sp)
	if !m.t.op("wal-append", err) {
		tr.end(sh)
		tr.end(root)
		return
	}
	if st.FW.IncrementalRebuild() {
		incrPass(tr, st.FW, vals, "", tidMirror)
	} else {
		sp = tr.begin("core.push_lazy", tidMirror)
		for _, v := range vals {
			st.FW.PushLazy(v)
		}
		tr.end(sp)
	}
	sp = tr.begin("agglom.push", tidMirror)
	for _, v := range vals {
		st.Agg.Push(v)
	}
	tr.end(sp)
	sp = tr.begin("quantile.gk_insert", tidMirror)
	for _, v := range vals {
		st.GK.Insert(v)
	}
	tr.end(sp)
	sp = tr.begin("vhist.push", tidMirror)
	for _, v := range vals {
		st.Sed.Push(v)
	}
	tr.end(sp)
	sp = tr.begin("stream.stats_push", tidMirror)
	for _, v := range vals {
		st.Stats.Push(v)
	}
	tr.end(sp)
	start := int64(len(md.all))
	if st.Aud != nil {
		m.audit(st, st.Aud, vals, start, "", tidMirror)
	}
	tr.end(sh)
	tr.end(root)
	md.all = append(md.all, vals...)
	m.shadowIngest(ms, vals, start)
}

// incrPass times one incremental maintenance pass, naming the span
// core.incr_fallback when the pass fell back to an exact rebuild.
func incrPass(tr *tracer, fw *core.FixedWindow, vals []float64, prefix string, tid int) {
	h0, _, f0 := fw.IncrementalStats()
	sp := tr.begin(prefix+"core.incr_pass", tid)
	fw.PushBatch(vals)
	if h1, _, f1 := fw.IncrementalStats(); f1 > f0 || h1 == h0 {
		tr.rename(sp, prefix+"core.incr_fallback")
	}
	tr.end(sp)
}

// audit feeds the auditor and runs a due pass, as the shard loop does.
func (m *mirror) audit(st *shard.State, aud *quality.Auditor, vals []float64, start int64, prefix string, tid int) {
	sp := m.tr.begin(prefix+"quality.observe", tid)
	aud.ObserveBatch(vals, start)
	m.tr.end(sp)
	if aud.Due() {
		sp = m.tr.begin(prefix+"quality.audit_run", tid)
		aud.Run(auditTarget{st}, nil, nil, 0)
		m.tr.end(sp)
	}
}

// shadowIngest times the layers the workload does not use on the same
// batch, outside the ingest span.
func (m *mirror) shadowIngest(ms *mirrorStream, vals []float64, start int64) {
	if ms.shadowFW == nil {
		return
	}
	incrPass(m.tr, ms.shadowFW, vals, "shadow.", tidShadow)
	// The shadow auditor reads the shadow window, which is always fresh:
	// reading the lazy engine's window would flush it, taking the
	// rebuild away from the next query.
	st := *ms.st
	st.FW = ms.shadowFW
	m.audit(&st, ms.shadowAud, vals, start, "shadow.", tidShadow)
}

// query answers one range query the way the query handler does and
// checks it against the benchmark's own window.
func (m *mirror) query(key string, lo, hi int) {
	tr := m.tr
	st := m.streams[key].st
	root := tr.begin("request.query", tidMirror)
	sv := tr.begin("shard.view", tidMirror)
	name := "core.histogram" // extraction from a fresh cover
	if !st.FW.IncrementalRebuild() {
		name = "core.rebuild" // the lazy engine's flush: a full rebuild
	}
	sp := tr.begin(name, tidMirror)
	res, err := st.FW.Histogram()
	tr.end(sp)
	var est float64
	if err == nil {
		est = res.Histogram.EstimateRangeSum(lo, hi)
	}
	tr.end(sv)
	tr.end(root)
	if !m.t.op("query", err) {
		return
	}
	md := m.models[key]
	h := histResp{WindowStart: st.FW.WindowStart(), SSE: res.SSE}
	for _, b := range res.Histogram.Buckets {
		h.Buckets = append(h.Buckets, bucket{b.Start, b.End, b.Value})
	}
	win := md.window(m.w.window)
	m.t.check("histogram", checkHistogram(h, win, m.w.buckets, md.windowStart(m.w.window)))
	m.t.check("range", checkRange(est, lo, hi, win, h))
}

// auditTarget adapts one stream's summaries to the auditor, as the
// shard engine's own adapter does.
type auditTarget struct{ st *shard.State }

func (a auditTarget) Epsilon() float64 { return a.st.FW.Epsilon() }
func (a auditTarget) WindowLen() int   { return a.st.FW.Len() }
func (a auditTarget) RangeSum(lo, hi int) (float64, error) {
	return a.st.FW.EstimateRangeSum(lo, hi)
}
func (a auditTarget) Quantile(phi float64) (float64, error) { return a.st.GK.Query(phi) }
func (a auditTarget) Selectivity(lo, hi float64) (float64, error) {
	h, err := a.st.Sed.Histogram()
	if err != nil {
		return 0, err
	}
	return h.Selectivity(lo, hi), nil
}
func (a auditTarget) Staleness() float64 {
	hits, _, fallbacks := a.st.FW.IncrementalStats()
	if total := hits + fallbacks; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}
func (a auditTarget) DriftCheck() (float64, bool, int, int, error) {
	res, err := a.st.FW.Histogram()
	if err != nil {
		return 0, false, 0, 0, err
	}
	if ref := a.st.Det.Reference(); ref != nil {
		rs, re := ref.Span()
		cs, ce := res.Histogram.Span()
		if rs != cs || re != ce {
			a.st.Det.Reset()
		}
	}
	dist, drifted, err := a.st.Det.Observe(res.Histogram)
	return dist, drifted, a.st.Det.Alarms(), a.st.Det.Checks(), err
}

// forOps calls write and query for every measured operation, in the
// load generator's order, interleaving the connections round by round.
func forOps(w *workload, in *inputs, write func(key string, vs []float64), query func(key string, lo, hi int)) {
	for j := 0; j < in.writes/w.streams; j++ {
		for _, rounds := range in.order {
			for _, k := range rounds[j] {
				write(k, in.batches[k][j])
				if j%w.queryEvery == w.queryEvery-1 {
					q := in.queries[k][j/w.queryEvery]
					query(k, q[0], q[1])
				}
			}
		}
	}
}

// prefillAndRestart writes the prefill untraced, checkpoints every
// shard (timed), then reloads the checkpoints into fresh summary sets
// (timed), as the daemon's graceful restart does.
func (m *mirror) prefillAndRestart() error {
	on := m.tr.on
	m.tr.on = false
	for _, keys := range m.in.conns {
		for _, k := range keys {
			pre := m.in.prefill[k]
			for off := 0; off < len(pre); off += prefillBatch {
				m.ingest(k, pre[off:min(off+prefillBatch, len(pre))])
			}
		}
	}
	m.tr.on = on
	blobs := map[string][]byte{}
	for s := 0; s < shards; s++ {
		var container []byte
		for _, keys := range m.in.conns {
			for _, k := range keys {
				if shardOf(k) != s {
					continue
				}
				b, err := m.streams[k].st.FW.MarshalBinary()
				if err != nil {
					return err
				}
				blobs[k] = b
				container = append(container, b...)
			}
		}
		dir := filepath.Join(m.dir, fmt.Sprintf("shard-%04d", s))
		sp := m.tr.begin("checkpoint.save", tidMirror)
		err := checkpoint.Save(faults.OS{}, dir, int64(len(container)), container)
		m.tr.end(sp)
		if err != nil {
			return err
		}
		sp = m.tr.begin("checkpoint.load", tidMirror)
		_, _, err = checkpoint.Latest(faults.OS{}, dir)
		m.tr.end(sp)
		if err != nil {
			return err
		}
	}
	for _, keys := range m.in.conns {
		for _, k := range keys {
			fw, err := newWindow(m.w)
			if err != nil {
				return err
			}
			sp := m.tr.begin("core.unmarshal", tidMirror)
			err = fw.UnmarshalBinary(blobs[k])
			m.tr.end(sp)
			if err != nil {
				return err
			}
			ms, err := m.newStream(k, fw)
			if err != nil {
				return err
			}
			if !m.w.incremental {
				if ms.shadowFW, err = core.NewWithDelta(m.w.window, m.w.buckets, m.w.eps, m.w.delta); err != nil {
					return err
				}
				ms.shadowFW.SetIncrementalRebuild(true)
				ms.shadowFW.PushBatch(m.models[k].all)
			}
			m.streams[k] = ms
		}
	}
	return nil
}

// replay times a full keyed replay of every shard's log and, on the
// incremental workload, the lazy pushes recovery applies.
func (m *mirror) replay() (points int, err error) {
	for s, w := range m.wals {
		sp := m.tr.begin("wal.replay", tidMirror)
		err = w.ReplayKeyed(0, func(r wal.KeyedRecord) error {
			points += len(r.Values)
			return nil
		})
		m.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	if m.w.incremental {
		// Recovery replays with lazy pushes whatever the engine.
		for k, md := range m.models {
			fw, err := core.NewWithDelta(m.w.window, m.w.buckets, m.w.eps, m.w.delta)
			if err != nil {
				return 0, err
			}
			sp := m.tr.begin("shadow.core.push_lazy", tidShadow)
			for _, v := range md.all[m.models[k].since:] {
				fw.PushLazy(v)
			}
			m.tr.end(sp)
		}
	}
	return points, nil
}

// runMirror runs the mirror pass and returns it with its measured
// phase's wall time.
func runMirror(dir string, w *workload, in *inputs, t *tally, tr *tracer) (*mirror, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	m, err := newMirror(dir, w, in, t, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := m.prefillAndRestart(); err != nil {
		m.close()
		return nil, 0, err
	}
	for _, md := range m.models {
		md.since = len(md.all)
	}
	before := m.counters()
	t0 := time.Now()
	forOps(w, in, m.ingest, m.query)
	d := time.Since(t0)
	m.delta = m.counters().minus(before)
	return m, d, nil
}

// coreCounters are the fixed windows' own work counters, summed over
// streams.
type coreCounters struct {
	evals, candidates, memoHits, memoMisses, warmHits, warmMisses int64
}

func (m *mirror) counters() coreCounters {
	var c coreCounters
	for _, ms := range m.streams {
		e, k := ms.st.FW.Evals()
		mh, mm := ms.st.FW.MemoStats()
		wh, wm := ms.st.FW.WarmStats()
		c.evals, c.candidates = c.evals+e, c.candidates+k
		c.memoHits, c.memoMisses = c.memoHits+mh, c.memoMisses+mm
		c.warmHits, c.warmMisses = c.warmHits+wh, c.warmMisses+wm
	}
	return c
}

func (c coreCounters) minus(o coreCounters) coreCounters {
	return coreCounters{c.evals - o.evals, c.candidates - o.candidates, c.memoHits - o.memoHits,
		c.memoMisses - o.memoMisses, c.warmHits - o.warmHits, c.warmMisses - o.warmMisses}
}

// engineResult is the engine pass's timing.
type engineResult struct {
	ingestMS, viewWaitMS float64
}

// runEngine drives the real shard engine sequentially through the same
// inputs, with a prober goroutine timing no-op Views.
func runEngine(dir string, w *workload, in *inputs, t *tally, tr *tracer) (engineResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return engineResult{}, err
	}
	var audit *quality.Config
	if w.audit {
		audit = &quality.Config{Interval: w.auditEvery}
	}
	open := func() (*shard.Engine, error) {
		return shard.NewEngine(shard.Config{
			Shards: shards, DataDir: dir, SyncEveryAppend: true, Audit: audit,
			Metrics: obs.NewRegistry(), Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
			Factory: func(string) (*shard.State, error) {
				fw, err := newWindow(w)
				if err != nil {
					return nil, err
				}
				return shard.NewState(fw)
			},
		})
	}
	eng, err := open()
	if err != nil {
		return engineResult{}, err
	}
	for _, keys := range in.conns {
		for _, k := range keys {
			pre := in.prefill[k]
			for off := 0; off < len(pre); off += prefillBatch {
				_, _, err := eng.Ingest(k, 0, pre[off:min(off+prefillBatch, len(pre))])
				t.op("engine-prefill", err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		return engineResult{}, err
	}
	if eng, err = open(); err != nil {
		return engineResult{}, err
	}
	defer eng.Close()

	// The prober views every stream in turn, 1 ms apart, until the
	// replay ends; each View waits for whatever holds that shard's lock.
	var keys []string
	for _, ks := range in.conns {
		keys = append(keys, ks...)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var waits []float64
	type probe struct {
		start time.Time
		d     time.Duration
	}
	var probes []probe
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			t0 := time.Now()
			_ = eng.View(keys[i%len(keys)], func(*shard.State) error { return nil })
			d := time.Since(t0)
			probes = append(probes, probe{t0, d})
			time.Sleep(time.Millisecond)
		}
	}()
	var ingest []float64
	var calls []probe
	forOps(w, in, func(k string, vs []float64) {
		t0 := time.Now()
		_, _, err := eng.Ingest(k, 0, vs)
		d := time.Since(t0)
		ingest = append(ingest, ms(d))
		calls = append(calls, probe{t0, d})
		t.op("engine-ingest", err)
	}, func(k string, lo, hi int) {
		t0 := time.Now()
		err := eng.View(k, func(st *shard.State) error {
			res, err := st.FW.Histogram()
			if err == nil {
				_ = res.Histogram.EstimateRangeSum(lo, hi)
			}
			return err
		})
		tr.add("engine.view", tidEngine, t0, time.Since(t0))
		t.op("engine-view", err)
	})
	stop.Store(true)
	wg.Wait()
	for _, c := range calls {
		tr.add("engine.ingest", tidEngine, c.start, c.d)
	}
	for _, p := range probes {
		waits = append(waits, ms(p.d))
		tr.add("engine.view_probe", tidProbe, p.start, p.d)
	}
	return engineResult{ingestMS: mean(ingest), viewWaitMS: mean(waits)}, nil
}

// runServer drives the real HTTP handler in-process (no socket) through
// the same inputs and returns the mean handler times in microseconds.
func runServer(dir string, w *workload, in *inputs, t *tally, tr *tracer) (ingestUS, queryUS float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	open := func() (*server.Server, error) {
		return server.Open(server.Options{
			Window: w.window, Buckets: w.buckets, Eps: w.eps, Delta: w.delta, Incremental: w.incremental,
			Shards: shards, DataDir: dir, SyncEveryAppend: true, RequestTimeout: 30 * time.Second,
			Audit: w.audit, AuditInterval: w.auditEvery, Metrics: obs.NewRegistry(),
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
	}
	s, err := open()
	if err != nil {
		return 0, 0, err
	}
	serve := func(method, path string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Duration) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		s.ServeHTTP(rec, req)
		return rec, t0, time.Since(t0)
	}
	for _, keys := range in.conns {
		for _, k := range keys {
			pre := in.prefill[k]
			for off := 0; off < len(pre); off += prefillBatch {
				rec, _, _ := serve(http.MethodPost, "/v1/streams/"+k+"/ingest", encodeBatch(pre[off:min(off+prefillBatch, len(pre))]))
				t.op("server-prefill", statusErr(rec))
			}
		}
	}
	if err := s.Close(); err != nil {
		return 0, 0, err
	}
	if s, err = open(); err != nil {
		return 0, 0, err
	}
	defer s.Close()
	var ing, qry []float64
	forOps(w, in, func(k string, vs []float64) {
		rec, t0, d := serve(http.MethodPost, "/v1/streams/"+k+"/ingest", encodeBatch(vs))
		ing = append(ing, float64(d)/1e3)
		tr.add("server.ingest_handler", tidServer, t0, d)
		t.op("server-ingest", statusErr(rec))
	}, func(k string, lo, hi int) {
		rec, t0, d := serve(http.MethodGet, fmt.Sprintf("/v1/streams/%s/query?lo=%d&hi=%d", k, lo, hi), nil)
		qry = append(qry, float64(d)/1e3)
		tr.add("server.query_handler", tidServer, t0, d)
		t.op("server-query", statusErr(rec))
	})
	return mean(ing), mean(qry), nil
}

func statusErr(rec *httptest.ResponseRecorder) error {
	if rec.Code/100 != 2 {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ingestLayers are the layer calls inside the daemon's Engine.Ingest,
// in the shard loop's order. Their self times and the unattributed
// remainder add up to shard.ingest_ms.
var ingestLayers = []string{
	"wal.append_sync", "core.push_lazy", "core.incr_pass", "core.incr_fallback",
	"agglom.push", "quantile.gk_insert", "vhist.push", "stream.stats_push",
	"quality.observe", "quality.audit_run",
}

// perLayerUnits names every per-layer metric's unit.
var perLayerUnits = map[string]string{
	"server.ingest_handler_us":          "us",
	"server.query_handler_us":           "us",
	"stream.parse_ns_per_point":         "ns",
	"shard.ingest_ms":                   "ms",
	"shard.ingest_unattributed_ms":      "ms",
	"shard.view_wait_ms":                "ms",
	"wal.append_sync_ms":                "ms",
	"wal.bytes_per_point":               "B",
	"wal.replay_us_per_point":           "us",
	"checkpoint.save_ms":                "ms",
	"checkpoint.load_ms":                "ms",
	"core.push_lazy_ns_per_point":       "ns",
	"core.rebuild_ms":                   "ms",
	"core.herror_evals_per_rebuild":     "count",
	"core.candidates_per_rebuild":       "count",
	"core.memo_hit_ratio":               "ratio",
	"core.warm_hit_ratio":               "ratio",
	"core.incr_pass_us":                 "us",
	"core.incr_fallback_ms":             "ms",
	"core.incr_fallbacks_per_1k_passes": "count",
	"core.unmarshal_ms_per_stream":      "ms",
	"agglom.push_us_per_point":          "us",
	"agglom.endpoints_per_stream":       "count",
	"quantile.gk_insert_ns_per_point":   "ns",
	"vhist.push_ns_per_point":           "ns",
	"quality.observe_ns_per_point":      "ns",
	"quality.audit_run_ms":              "ms",
}

// runTraced runs the traced mode and returns the per-layer metrics.
func runTraced(work string, w *workload, seed uint64, t *tally) (map[string]metricOut, error) {
	in := makeInputs(w, seed, tracedSegments)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	m0, untracedD, err := runMirror(filepath.Join(work, "mirror-untraced"), w, in, t, &tracer{})
	if err != nil {
		return nil, err
	}
	m0.close()
	tr := &tracer{on: true, t0: time.Now()}
	m, tracedD, err := runMirror(filepath.Join(work, "mirror"), w, in, t, tr)
	if err != nil {
		return nil, err
	}
	defer m.close()
	replayed, err := m.replay()
	if err != nil {
		return nil, err
	}
	eng, err := runEngine(filepath.Join(work, "engine"), w, in, t, tr)
	if err != nil {
		return nil, err
	}
	ingUS, qryUS, err := runServer(filepath.Join(work, "server"), w, in, t, tr)
	if err != nil {
		return nil, err
	}

	stats := tr.byName()
	get := func(names ...string) *layerStats { // the first name that has spans
		for _, n := range names {
			if ls := stats[n]; ls != nil {
				return ls
			}
		}
		return &layerStats{}
	}
	points := float64(in.writes * w.batch)
	perPoint := func(scale float64, names ...string) float64 { return get(names...).total * scale / points }
	meanOf := func(scale float64, names ...string) float64 {
		ls := &layerStats{}
		for _, n := range names {
			if s := stats[n]; s != nil {
				ls.calls += s.calls
				ls.total += s.total
			}
		}
		if ls.calls == 0 {
			return 0
		}
		return ls.total * scale / float64(ls.calls)
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	attributed := 0.0 // ms per write
	for _, n := range ingestLayers {
		attributed += get(n).total / 1e3 / float64(in.writes)
	}
	rebuilds := get("core.rebuild").calls + get("core.incr_fallback").calls
	passes := rebuilds + get("core.incr_pass").calls
	incrPasses := get("core.incr_pass", "shadow.core.incr_pass").calls
	incrFallbacks := get("core.incr_fallback", "shadow.core.incr_fallback").calls
	endpoints := 0
	for _, ms := range m.streams {
		endpoints += ms.st.Agg.StoredEndpoints()
	}
	lazyNS := perPoint(1e3, "core.push_lazy")
	if w.incremental {
		lazyNS = get("shadow.core.push_lazy").total * 1e3 / float64(replayed-len(in.prefill)*w.window)
	}
	vals := map[string]float64{
		"server.ingest_handler_us":          ingUS,
		"server.query_handler_us":           qryUS,
		"stream.parse_ns_per_point":         perPoint(1e3, "stream.parse"),
		"shard.ingest_ms":                   eng.ingestMS,
		"shard.ingest_unattributed_ms":      eng.ingestMS - attributed,
		"shard.view_wait_ms":                eng.viewWaitMS,
		"wal.append_sync_ms":                meanOf(1e-3, "wal.append_sync"),
		"wal.bytes_per_point":               float64(m.walBytes) / points,
		"wal.replay_us_per_point":           get("wal.replay").total / float64(replayed),
		"checkpoint.save_ms":                meanOf(1e-3, "checkpoint.save"),
		"checkpoint.load_ms":                meanOf(1e-3, "checkpoint.load"),
		"core.push_lazy_ns_per_point":       lazyNS,
		"core.rebuild_ms":                   meanOf(1e-3, "core.rebuild", "core.incr_fallback"),
		"core.herror_evals_per_rebuild":     float64(m.delta.evals) / float64(max(passes, 1)),
		"core.candidates_per_rebuild":       float64(m.delta.candidates) / float64(max(passes, 1)),
		"core.memo_hit_ratio":               ratio(m.delta.memoHits, m.delta.memoMisses),
		"core.warm_hit_ratio":               ratio(m.delta.warmHits, m.delta.warmMisses),
		"core.incr_pass_us":                 meanOf(1, "core.incr_pass", "shadow.core.incr_pass"),
		"core.incr_fallback_ms":             meanOf(1e-3, "core.incr_fallback", "shadow.core.incr_fallback"),
		"core.incr_fallbacks_per_1k_passes": 1000 * ratio(int64(incrFallbacks), int64(incrPasses)),
		"core.unmarshal_ms_per_stream":      meanOf(1e-3, "core.unmarshal"),
		"agglom.push_us_per_point":          perPoint(1, "agglom.push"),
		"agglom.endpoints_per_stream":       float64(endpoints) / float64(len(m.streams)),
		"quantile.gk_insert_ns_per_point":   perPoint(1e3, "quantile.gk_insert"),
		"vhist.push_ns_per_point":           perPoint(1e3, "vhist.push"),
		"quality.observe_ns_per_point":      perPoint(1e3, "quality.observe", "shadow.quality.observe"),
		"quality.audit_run_ms":              meanOf(1e-3, "quality.audit_run", "shadow.quality.audit_run"),
	}

	spanFile := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := tr.writePerfetto(spanFile); err != nil {
		return nil, err
	}
	printLayers(os.Stderr, stats)
	fmt.Fprintf(os.Stderr, "\nper write (ms), Engine.Ingest breakdown:\n")
	for _, n := range ingestLayers {
		if ls := stats[n]; ls != nil {
			fmt.Fprintf(os.Stderr, "  %-28s %9.4f\n", n, ls.total/1e3/float64(in.writes))
		}
	}
	fmt.Fprintf(os.Stderr, "  %-28s %9.4f\n  %-28s %9.4f  (shard.ingest_ms)\n", "unattributed", eng.ingestMS-attributed, "total", eng.ingestMS)
	fmt.Fprintf(os.Stderr, "mirror measured phase: untraced %.3f s, traced %.3f s, tracing overhead %+.1f%%\n",
		untracedD.Seconds(), tracedD.Seconds(), 100*(tracedD.Seconds()/untracedD.Seconds()-1))
	fmt.Fprintf(os.Stderr, "spans: %d, written to %s\n", len(tr.spans), spanFile)
	for _, d := range []string{"mirror-untraced", "mirror", "engine", "server"} {
		if err := os.RemoveAll(filepath.Join(work, d)); err != nil {
			return nil, err
		}
	}
	out := make(map[string]metricOut, len(vals))
	for k, v := range vals {
		out[k] = metricOut{Value: v, Unit: perLayerUnits[k]}
	}
	return out, nil
}

// printLayers prints, per span name, the call count and the self time's
// total, p50 and p99.
func printLayers(w io.Writer, stats map[string]*layerStats) {
	fmt.Fprintf(w, "%-28s %8s %12s %10s %10s\n", "span", "calls", "self ms", "p50 us", "p99 us")
	for _, n := range sortedKeys(stats) {
		ls := stats[n]
		fmt.Fprintf(w, "%-28s %8d %12.2f %10.2f %10.2f\n", n, ls.calls, ls.total/1e3,
			percentile(ls.self, 0.5), percentile(ls.self, 0.99))
	}
}
