package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	c := r.Counter("jobs.submitted")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs.submitted") != c {
		t.Fatal("same name returned a different counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauge("cache.entries")
	g.Set(3)
	g.Add(2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.BucketedHistogram("predict.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantiles report the holding bucket's upper bound: within the
	// layout's 1/bhSubBuckets relative error, and clamped to the max.
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}} {
		if got := h.Quantile(c.q); got < c.want || got > c.want*(1+1.0/bhSubBuckets) {
			t.Fatalf("p%g = %g, want %g within 1/%d", 100*c.q, got, c.want, bhSubBuckets)
		}
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p100 = %g, want 100", q)
	}
	st := r.Snapshot().Histograms["predict.latency"]
	if st.Min != 1 || st.Max != 100 || st.Mean != 50.5 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestEmptyHistogramQuantileIsNaN(t *testing.T) {
	if !math.IsNaN(NewBucketedHistogram().Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.BucketedHistogram("z").Observe(1)
	r.BucketedHistogram("z").ObserveDuration(time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil registry retained state")
	}
	if !math.IsNaN(r.BucketedHistogram("z").Quantile(0.5)) {
		t.Fatal("nil histogram quantile not NaN")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.BucketedHistogram("h").Observe(float64(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.BucketedHistogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotMergeAddsCounters(t *testing.T) {
	a := New()
	a.Counter("predict.hit").Add(3)
	a.BucketedHistogram("lat").Observe(1)
	a.BucketedHistogram("lat").Observe(3)
	b := New()
	b.Counter("predict.hit").Add(2)
	b.Counter("predict.miss").Inc()
	b.Gauge("models").Set(7)
	b.BucketedHistogram("lat").Observe(5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["predict.hit"] != 5 || s.Counters["predict.miss"] != 1 {
		t.Fatalf("merged counters = %+v", s.Counters)
	}
	if s.Gauges["models"] != 7 {
		t.Fatalf("merged gauges = %+v", s.Gauges)
	}
	h := s.Histograms["lat"]
	if h.Count != 3 || h.Sum != 9 || h.Min != 1 || h.Max != 5 || h.Mean != 3 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

// A metrics.json written by an older binary may hold a bucketless
// stat; merging a bucketed one into it keeps the lifetime fields exact.
func TestSnapshotMergeBucketlessWithBucketed(t *testing.T) {
	old := Snapshot{Histograms: map[string]HistogramStat{
		"lat": {Count: 2, Sum: 4, Min: 1, Max: 3, Mean: 2, P50: 1, P90: 3, P99: 3, P999: 3},
	}}
	r := New()
	r.BucketedHistogram("lat").Observe(5)
	old.Merge(r.Snapshot())
	h := old.Histograms["lat"]
	if h.Count != 3 || h.Sum != 9 || h.Min != 1 || h.Max != 5 || h.Mean != 3 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0].Count != 1 {
		t.Fatalf("merged buckets = %+v, want the new stat's one bucket", h.Buckets)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2.5)
	r.BucketedHistogram("c").Observe(0.001)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Gauges["b"] != 2.5 || back.Histograms["c"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteTextStableAndReadable(t *testing.T) {
	r := New()
	r.Counter("b.count").Inc()
	r.Counter("a.count").Add(2)
	r.BucketedHistogram("lat").ObserveDuration(2 * time.Millisecond)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "a.count") || !strings.Contains(out, "b.count") {
		t.Fatalf("missing counters:\n%s", out)
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatal("counters not sorted")
	}
	if !strings.Contains(out, "2ms") {
		t.Fatalf("latency not rendered as a duration:\n%s", out)
	}
}

func TestWriteTextRowsHistogramsArePlainNumbers(t *testing.T) {
	r := New()
	r.BucketedHistogram("sweep.batch_rows").Observe(8)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "mean=8 ") {
		t.Fatalf("batch size not rendered as a plain number:\n%s", out)
	}
	if strings.Contains(out, "8s") {
		t.Fatalf("batch size rendered as a duration:\n%s", out)
	}
}
