package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// The checks below compare the daemon's answers with what the benchmark
// computes itself from its own copy of the inputs, or with a property
// the method guarantees. None of them calls into the program.

type bucket struct {
	Start int     `json:"start"`
	End   int     `json:"end"`
	Value float64 `json:"value"`
}

type histResp struct {
	WindowStart int64    `json:"windowStart"`
	SSE         float64  `json:"sse"`
	Buckets     []bucket `json:"buckets"`
}

type ackResp struct {
	Ingested int   `json:"ingested"`
	Seen     int64 `json:"seen"`
	Degraded bool  `json:"degraded"`
}

type queryResp struct {
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Estimate float64 `json:"estimate"`
}

type statsResp struct {
	Seen     int64   `json:"seen"`
	Window   int     `json:"window"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

type quantileResp struct {
	Phi   float64 `json:"phi"`
	Value float64 `json:"value"`
	N     int64   `json:"n"`
}

// gkEps is the rank precision of the daemon's whole-stream GK summary.
const gkEps = 0.01

// near reports whether a and b agree to a relative tolerance rel of
// scale, plus a small absolute slack.
func near(a, b, rel, scale float64) bool {
	return math.Abs(a-b) <= rel*math.Abs(scale)+1e-9
}

// checkAck: a 200 whose ingested count is the batch size and whose seen
// is the benchmark's own running count, without a degraded flag.
func checkAck(a ackResp, batch int, wantSeen int64) error {
	if a.Ingested != batch {
		return fmt.Errorf("ack ingested %d, sent %d", a.Ingested, batch)
	}
	if a.Seen != wantSeen {
		return fmt.Errorf("ack seen %d, want %d", a.Seen, wantSeen)
	}
	if a.Degraded {
		return errors.New("ack is degraded (memory-only)")
	}
	return nil
}

// checkHistogram: the buckets tile the window, number at most b, each
// value is the mean of its slice, and the reported SSE is the SSE
// recomputed from window.
func checkHistogram(h histResp, window []float64, b int, windowStart int64) error {
	n := len(window)
	if len(h.Buckets) == 0 || len(h.Buckets) > b {
		return fmt.Errorf("histogram has %d buckets, want 1..%d", len(h.Buckets), b)
	}
	if h.WindowStart != windowStart {
		return fmt.Errorf("histogram windowStart %d, want %d", h.WindowStart, windowStart)
	}
	next := 0
	sse, sq := 0.0, 0.0
	for i, bk := range h.Buckets {
		if bk.Start != next || bk.End < bk.Start || bk.End >= n {
			return fmt.Errorf("bucket %d [%d,%d] does not continue the tiling at %d of %d", i, bk.Start, bk.End, next, n)
		}
		sum := 0.0
		for _, v := range window[bk.Start : bk.End+1] {
			sum += v
			sq += v * v
		}
		mean := sum / float64(bk.End-bk.Start+1)
		if !near(bk.Value, mean, 1e-12, mean) {
			return fmt.Errorf("bucket %d [%d,%d] value %v, slice mean %v", i, bk.Start, bk.End, bk.Value, mean)
		}
		for _, v := range window[bk.Start : bk.End+1] {
			sse += (v - mean) * (v - mean)
		}
		next = bk.End + 1
	}
	if next != n {
		return fmt.Errorf("buckets end at %d, window holds %d points", next, n)
	}
	if !near(h.SSE, sse, 1e-12, sq) {
		return fmt.Errorf("reported SSE %v, recomputed %v", h.SSE, sse)
	}
	return nil
}

// bucketEstimate is the range-sum estimate a histogram implies: each
// bucket contributes its value times its overlap with [lo, hi].
func bucketEstimate(bs []bucket, lo, hi int) float64 {
	s := 0.0
	for _, b := range bs {
		l, r := max(b.Start, lo), min(b.End, hi)
		if l <= r {
			s += float64(r-l+1) * b.Value
		}
	}
	return s
}

// checkRange: the answer is the estimate of the histogram the daemon
// serves, and |est - exact| <= sqrt(L * SSE) (Cauchy-Schwarz over the L
// positions of the range).
func checkRange(est float64, lo, hi int, window []float64, h histResp) error {
	if lo < 0 || hi >= len(window) || hi < lo {
		return fmt.Errorf("range [%d,%d] outside window of %d", lo, hi, len(window))
	}
	exact, abs := 0.0, 0.0
	for _, v := range window[lo : hi+1] {
		exact += v
		abs += math.Abs(v)
	}
	if want := bucketEstimate(h.Buckets, lo, hi); !near(est, want, 1e-12, abs) {
		return fmt.Errorf("range [%d,%d] answer %v, its histogram gives %v", lo, hi, est, want)
	}
	bound := math.Sqrt(float64(hi-lo+1) * h.SSE)
	if math.Abs(est-exact) > bound*(1+1e-9)+1e-9*abs {
		return fmt.Errorf("range [%d,%d] answer %v, exact %v: error %v above sqrt(L*SSE) = %v",
			lo, hi, est, exact, math.Abs(est-exact), bound)
	}
	return nil
}

// optSSE is the optimal b-bucket SSE of xs by the O(n^2 b) dynamic
// program over prefix sums.
func optSSE(xs []float64, b int) float64 {
	n := len(xs)
	ps := make([]float64, n+1)
	pq := make([]float64, n+1)
	for i, v := range xs {
		ps[i+1] = ps[i] + v
		pq[i+1] = pq[i] + v*v
	}
	sq := func(i, j int) float64 { // SSE of xs[i:j] as one bucket
		s := ps[j] - ps[i]
		return pq[j] - pq[i] - s*s/float64(j-i)
	}
	prev := make([]float64, n+1) // prev[j]: best SSE of xs[:j] with k-1 buckets
	cur := make([]float64, n+1)
	for j := 1; j <= n; j++ {
		prev[j] = sq(0, j)
	}
	for k := 2; k <= b && k <= n; k++ {
		cur[k-1] = 0
		for j := k; j <= n; j++ {
			best := math.Inf(1)
			for i := k - 1; i < j; i++ {
				if c := prev[i] + sq(i, j); c < best {
					best = c
				}
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return math.Max(0, prev[n])
}

// checkSSEBound: OPT <= SSE <= factor * OPT.
func checkSSEBound(sse, opt, factor float64) error {
	slack := 1e-9*opt + 1e-6
	if sse < opt-slack {
		return fmt.Errorf("SSE %v below the optimum %v", sse, opt)
	}
	if sse > factor*opt+slack {
		return fmt.Errorf("SSE %v above %.4g x optimum %v", sse, factor, opt)
	}
	return nil
}

// checkQuantile: the answer's rank in the exact sorted stream is within
// gkEps*n of phi*n (one position of slack for the rank convention).
func checkQuantile(q quantileResp, sorted []float64) error {
	n := len(sorted)
	if q.N != int64(n) {
		return fmt.Errorf("quantile summary holds %d points, stream has %d", q.N, n)
	}
	lo := sort.SearchFloat64s(sorted, q.Value)                            // points below value
	hi := sort.Search(n, func(i int) bool { return sorted[i] > q.Value }) // points at or below
	target := q.Phi * float64(n)
	dist := 0.0
	switch {
	case target < float64(lo):
		dist = float64(lo) - target
	case target > float64(hi):
		dist = target - float64(hi)
	}
	if dist > gkEps*float64(n)+1 {
		return fmt.Errorf("phi=%v answer %v has rank [%d,%d] of %d, %v from phi*n", q.Phi, q.Value, lo, hi, n, dist)
	}
	return nil
}

// checkStats: seen and window length are the benchmark's counts; mean,
// variance, min and max are those of the points since the daemon's
// whole-stream summaries last started.
func checkStats(s statsResp, seen int64, windowLen int, since []float64) error {
	if s.Seen != seen || s.Window != windowLen {
		return fmt.Errorf("stats seen=%d window=%d, want %d and %d", s.Seen, s.Window, seen, windowLen)
	}
	if len(since) == 0 {
		return nil
	}
	sum, sq := 0.0, 0.0
	mn, mx := since[0], since[0]
	for _, v := range since {
		sum += v
		sq += v * v
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	n := float64(len(since))
	mean := sum / n
	variance := sq/n - mean*mean
	if !near(s.Mean, mean, 1e-12, mean) || !near(s.Variance, variance, 1e-9, sq/n) || s.Min != mn || s.Max != mx {
		return fmt.Errorf("stats mean=%v var=%v min=%v max=%v, exact %v %v %v %v",
			s.Mean, s.Variance, s.Min, s.Max, mean, variance, mn, mx)
	}
	return nil
}

// checkSameHistogram: after recovery an exact engine serves exactly the
// pre-crash histogram.
func checkSameHistogram(got, want histResp) error {
	if got.SSE != want.SSE || got.WindowStart != want.WindowStart || len(got.Buckets) != len(want.Buckets) {
		return fmt.Errorf("recovered histogram (SSE %v, %d buckets) differs from pre-crash (SSE %v, %d buckets)",
			got.SSE, len(got.Buckets), want.SSE, len(want.Buckets))
	}
	for i := range got.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			return fmt.Errorf("recovered bucket %d %+v, pre-crash %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
	return nil
}

// selfTest shows that every check accepts a right answer and rejects a
// deliberately corrupted one. It returns one error per check that fails
// to tell them apart.
func selfTest() []error {
	window := []float64{1, 2, 3, 10, 11, 12, 30, 30, 31, 5, 6, 7}
	good := histResp{WindowStart: 100, Buckets: []bucket{{0, 2, 2}, {3, 5, 11}, {6, 8, 91.0 / 3}, {9, 11, 6}}}
	for _, b := range good.Buckets {
		for _, v := range window[b.Start : b.End+1] {
			good.SSE += (v - b.Value) * (v - b.Value)
		}
	}
	sorted := append([]float64(nil), window...)
	sort.Float64s(sorted)
	mutate := func(f func(h *histResp)) histResp {
		h := good
		h.Buckets = append([]bucket(nil), good.Buckets...)
		f(&h)
		return h
	}
	opt := optSSE(window, 4)
	cases := []struct {
		name      string
		good, bad func() error
	}{
		{"ack",
			func() error { return checkAck(ackResp{Ingested: 8, Seen: 40}, 8, 40) },
			func() error { return checkAck(ackResp{Ingested: 8, Seen: 39}, 8, 40) }},
		{"histogram-tiling",
			func() error { return checkHistogram(good, window, 4, 100) },
			func() error {
				return checkHistogram(mutate(func(h *histResp) { h.Buckets[1].Start++ }), window, 4, 100)
			}},
		{"histogram-buckets",
			func() error { return checkHistogram(good, window, 4, 100) },
			func() error { return checkHistogram(good, window, 3, 100) }},
		{"histogram-mean",
			func() error { return checkHistogram(good, window, 4, 100) },
			func() error {
				return checkHistogram(mutate(func(h *histResp) { h.Buckets[2].Value += 0.5 }), window, 4, 100)
			}},
		{"histogram-sse",
			func() error { return checkHistogram(good, window, 4, 100) },
			func() error { return checkHistogram(mutate(func(h *histResp) { h.SSE *= 1.01 }), window, 4, 100) }},
		{"sse-above-opt",
			func() error { return checkSSEBound(opt, opt, 1.1) },
			func() error { return checkSSEBound(opt*0.99-1, opt, 1.1) }},
		{"sse-within-factor",
			func() error { return checkSSEBound(opt*1.05, opt, 1.1) },
			func() error { return checkSSEBound(opt*1.2+1, opt, 1.1) }},
		{"range",
			func() error { return checkRange(bucketEstimate(good.Buckets, 1, 7), 1, 7, window, good) },
			func() error { return checkRange(bucketEstimate(good.Buckets, 1, 7)+1, 1, 7, window, good) }},
		{"range-bound",
			func() error { return checkRange(bucketEstimate(good.Buckets, 0, 11), 0, 11, window, good) },
			func() error {
				h := mutate(func(h *histResp) { h.Buckets[0].Value += 40; h.SSE = 0.01 })
				return checkRange(bucketEstimate(h.Buckets, 0, 11), 0, 11, window, h)
			}},
		{"quantile",
			func() error { return checkQuantile(quantileResp{Phi: 0.5, Value: sorted[6], N: 12}, sorted) },
			func() error { return checkQuantile(quantileResp{Phi: 0.5, Value: sorted[11], N: 12}, sorted) }},
		{"stats",
			func() error { return checkStats(exactStats(window, 12), 12, 12, window) },
			func() error {
				s := exactStats(window, 12)
				s.Mean += 0.25
				return checkStats(s, 12, 12, window)
			}},
		{"recovered-histogram",
			func() error { return checkSameHistogram(mutate(func(*histResp) {}), good) },
			func() error { return checkSameHistogram(mutate(func(h *histResp) { h.Buckets[3].Value = 6.5 }), good) }},
	}
	var errs []error
	for _, c := range cases {
		if err := c.good(); err != nil {
			errs = append(errs, fmt.Errorf("self-test %s: rejects a right answer: %v", c.name, err))
		}
		if c.bad() == nil {
			errs = append(errs, fmt.Errorf("self-test %s: accepts a corrupted answer", c.name))
		}
	}
	return errs
}

// exactStats is the /stats answer a correct daemon gives for xs.
func exactStats(xs []float64, seen int64) statsResp {
	s := statsResp{Seen: seen, Window: len(xs), Min: xs[0], Max: xs[0]}
	sum, sq := 0.0, 0.0
	for _, v := range xs {
		sum += v
		sq += v * v
		s.Min, s.Max = math.Min(s.Min, v), math.Max(s.Max, v)
	}
	s.Mean = sum / float64(len(xs))
	s.Variance = sq/float64(len(xs)) - s.Mean*s.Mean
	return s
}
