package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// workload is one traffic mix against one daemon configuration. Every
// count is fixed: a run does the same work whatever the machine's speed,
// so runs of one workload stay comparable.
type workload struct {
	name string

	// Daemon configuration.
	window      int
	buckets     int
	eps, delta  float64
	incremental bool
	audit       bool
	auditEvery  int // -audit-interval, points per audit pass

	// Traffic.
	streams      int // streams, split evenly over the two connections
	batch        int // points per measured write
	queryEvery   int // a range query follows every queryEvery-th write of a connection
	writesPerSec int // measured writes per second of --seconds (see segments)
	sample       int // streams whose optimum is computed by the DP at the end
	setups       int // set-ups per run; setup_s is the median of the calmer half
	recoveries   int // kill -9 recoveries per run; recover_s is the median of the calmer half
}

// The shard count is fixed so that stream-to-shard routing, and with it
// the contention between the two connections, is the same on every run.
const (
	shards      = 2
	connections = 2
	// prefillBatch is the points per prefill write.
	prefillBatch = 512
	// segmentRequests is the least number of timed writes, and of timed
	// queries, in one segment of the measured phase. The metrics pool at
	// least one segment's worth of requests (see calmSlices), so the p99
	// has at least ten samples beyond it.
	segmentRequests = 1000
	// slicesPerSegment is the number of slices a segment is cut into: the
	// unit whose host steal is measured and which calmSlices selects.
	slicesPerSegment = 4
	// minSegments is the least number of segments in a run.
	minSegments = 3
	// tracedSegments is the number of segments the traced mode replays,
	// whatever --seconds is: it runs the inputs four times in-process.
	tracedSegments = 2
)

// workloads are the benchmark's traffic mixes; README.md says why each
// exists. BENCHMARK.json gates the first two.
var workloads = []*workload{
	{
		name:   "ingest-durable",
		window: 4096, buckets: 16, eps: 0.1, delta: 0.1,
		streams: 16, batch: 64, queryEvery: 1, writesPerSec: 256, sample: 12,
		setups: 3, recoveries: 7,
	},
	{
		name:   "read-after-write",
		window: 4096, buckets: 8, eps: 0.25, delta: 0.25 / 16,
		streams: 8, batch: 8, queryEvery: 1, writesPerSec: 256, sample: 8,
		setups: 9, recoveries: 15,
	},
	{
		name:   "incremental-audit",
		window: 4096, buckets: 8, eps: 0.25, delta: 0.25 / 16, incremental: true, audit: true, auditEvery: 256,
		streams: 16, batch: 8, queryEvery: 4, writesPerSec: 1000, sample: 12,
		setups: 5, recoveries: 7,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// daemonFlags returns the streamhistd flags of the workload's
// configuration; durability is always on with fsync, and the timer
// checkpoint never fires inside a run.
func (w *workload) daemonFlags(addr, dataDir string) []string {
	f := []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync=true",
		"-checkpoint-interval", "1h",
		"-shards", strconv.Itoa(shards),
		"-window", strconv.Itoa(w.window),
		"-buckets", strconv.Itoa(w.buckets),
		"-eps", strconv.FormatFloat(w.eps, 'g', -1, 64),
		"-delta", strconv.FormatFloat(w.delta, 'g', -1, 64),
		"-log-level", "warn",
	}
	if w.incremental {
		f = append(f, "-incremental")
	}
	if w.audit {
		f = append(f, "-audit", "-audit-interval", strconv.Itoa(w.auditEvery))
	}
	return f
}

// sliceRounds is the number of rounds in one slice of the measured
// phase, where a round writes every stream queryEvery times and queries
// each once, so each connection issues the same number of writes and
// queries. A segment is slicesPerSegment slices and holds at least
// segmentRequests writes and queries.
func (w *workload) sliceRounds() int {
	rounds := (segmentRequests + w.streams - 1) / w.streams
	return (rounds + slicesPerSegment - 1) / slicesPerSegment
}

// segmentWrites is the number of writes in one segment.
func (w *workload) segmentWrites() int {
	return slicesPerSegment * w.sliceRounds() * w.streams * w.queryEvery
}

// segments is the number of segments of the measured phase for
// --seconds: writesPerSec × seconds writes, rounded up to whole
// segments, and at least minSegments.
func (w *workload) segments(seconds int) int {
	n := w.writesPerSec * seconds
	return max(minSegments, (n+w.segmentWrites()-1)/w.segmentWrites())
}

// sseBound is the factor by which a histogram's SSE may exceed the
// optimum of the window (DESIGN.md §11): (1+eps) at delta=eps/(2B),
// (1+delta)^(2B) otherwise, and (1+delta)^(4B) for incremental repair,
// whose stored bounds may be one fallback period stale.
func (w *workload) sseBound() float64 {
	switch {
	case w.incremental:
		return math.Pow(1+w.delta, float64(4*w.buckets))
	case w.delta <= w.eps/float64(2*w.buckets)*(1+1e-12):
		return 1 + w.eps
	default:
		return math.Pow(1+w.delta, float64(2*w.buckets))
	}
}

// streamKey names stream i. Keys do not depend on the seed, so routing
// is the same on every run.
func streamKey(i int) string { return fmt.Sprintf("s%02d", i) }

// shardOf mirrors the daemon's routing (FNV-1a of the key modulo the
// shard count); it is used only to spread each connection's streams
// evenly over the shards.
func shardOf(key string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum64() % shards)
}

// assignStreams splits the stream keys over the connections. Each
// connection has a home shard holding three quarters of its streams; the
// other quarter lives on the other connection's home shard. So about a
// quarter of a connection's requests can meet the other connection's work
// on one shard, and the rest cannot: tails caused by a shared shard sit
// well inside the slowest 5% of requests, and medians well outside it.
func assignStreams(n int) [][]string {
	var byShard [shards][]string
	for i := 0; len(byShard[0]) < n/shards || len(byShard[1]) < n/shards; i++ {
		k := streamKey(i)
		s := shardOf(k)
		if len(byShard[s]) < n/shards {
			byShard[s] = append(byShard[s], k)
		}
	}
	home := n / shards * 3 / 4
	return [][]string{
		append(append([]string(nil), byShard[0][:home]...), byShard[1][home:]...),
		append(append([]string(nil), byShard[1][:home]...), byShard[0][home:]...),
	}
}

// rng is splitmix64: small, fast and defined here, so the inputs depend
// only on the seed and on this file.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) norm() float64 {
	u := r.float()
	for u == 0 {
		u = r.float()
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// signal generates one stream: piecewise-constant levels with Gaussian
// noise and rare spikes, rounded to integers in [0, 1000] so the text
// encoding is exact and prefix sums carry no rounding error. Segment
// length and noise differ per stream.
type signal struct {
	r       *rng
	level   float64
	left    int
	meanSeg int
	noise   float64
}

// newSignal seeds stream i's generator. Its shape parameters depend on
// i alone, so a workload's mix of shapes is the same under every seed
// and only the realization varies.
func newSignal(seed uint64, key string, i int) *signal {
	return &signal{
		r:       newRNG(seed, key),
		meanSeg: 64 + 64*(i%8),
		noise:   5 + 5*float64((3*i)%8),
	}
}

func (g *signal) next() float64 {
	if g.left == 0 {
		g.level = 50 + 900*g.r.float()
		g.left = 1 + g.r.intn(2*g.meanSeg)
	}
	g.left--
	v := g.level + g.noise*g.r.norm()
	if g.r.intn(500) == 0 { // a spike in 500 points
		v += 300
	}
	return math.Max(0, math.Min(1000, math.Round(v)))
}

// inputs is everything a run sends: per stream, the prefill and the
// measured batches, plus the seeded range queries.
type inputs struct {
	conns    [][]string           // stream keys per connection
	order    [][][]string         // per connection and round, the order its streams are written in
	prefill  map[string][]float64 // per stream, window-sized prefill
	batches  map[string][][]float64
	queries  map[string][][2]int // per stream, one [lo, hi] per query, in order
	writes   int                 // measured writes in total
	segments int                 // segments of the measured phase, segmentWrites each
}

// makeInputs generates the inputs of a measured phase of the given
// number of segments. Every stream's points, queries and write orders
// are drawn in sequence, so the inputs of fewer segments are a prefix of
// those of more.
func makeInputs(w *workload, seed uint64, segments int) *inputs {
	in := &inputs{
		conns:    assignStreams(w.streams),
		prefill:  map[string][]float64{},
		batches:  map[string][][]float64{},
		queries:  map[string][][2]int{},
		writes:   segments * w.segmentWrites(),
		segments: segments,
	}
	perStream := in.writes / w.streams
	// Each round a connection writes each of its streams once, in an
	// order shuffled by a fixed seed. Whether the two connections meet on
	// one shard is then a coin toss per request, not a phase the two
	// closed loops can lock into for a whole run.
	for c, keys := range in.conns {
		g := newRNG(uint64(c)+1, "order")
		rounds := make([][]string, perStream)
		for j := range rounds {
			o := append([]string(nil), keys...)
			for i := len(o) - 1; i > 0; i-- {
				k := g.intn(i + 1)
				o[i], o[k] = o[k], o[i]
			}
			rounds[j] = o
		}
		in.order = append(in.order, rounds)
	}
	for _, keys := range in.conns {
		for _, k := range keys {
			var i int
			fmt.Sscanf(k, "s%d", &i)
			g := newSignal(seed, k, i)
			pre := make([]float64, w.window)
			for i := range pre {
				pre[i] = g.next()
			}
			in.prefill[k] = pre
			bs := make([][]float64, perStream)
			for i := range bs {
				b := make([]float64, w.batch)
				for j := range b {
					b[j] = g.next()
				}
				bs[i] = b
			}
			in.batches[k] = bs
			// Range queries (paper §5.1): uniform start, then uniform span
			// within the window.
			q := newRNG(seed^0x5eed, k)
			qs := make([][2]int, perStream/w.queryEvery)
			for i := range qs {
				lo := q.intn(w.window)
				hi := lo + q.intn(w.window-lo)
				qs[i] = [2]int{lo, hi}
			}
			in.queries[k] = qs
		}
	}
	return in
}

// encodeBatch renders values as the daemon's text ingest format.
func encodeBatch(vs []float64) []byte {
	out := make([]byte, 0, 5*len(vs))
	for _, v := range vs {
		out = strconv.AppendFloat(out, v, 'g', -1, 64)
		out = append(out, '\n')
	}
	return out
}
