package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("eco.submit.rewritten").Add(3)
	r.Gauge("predict.cache.entries").Set(2)
	h := r.BucketedHistogram("predict.latency.seconds")
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		h.ObserveDuration(d)
	}

	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE eco_submit_rewritten counter\neco_submit_rewritten 3\n",
		"# TYPE predict_cache_entries gauge\npredict_cache_entries 2\n",
		"# TYPE predict_latency_seconds summary\n",
		`predict_latency_seconds{quantile="0.5"} 0.020`, // the 20ms bucket's upper bound
		`predict_latency_seconds{quantile="0.99"} 0.03`,
		"predict_latency_seconds_sum 0.06",
		"predict_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Dotted names must not leak through.
	if strings.Contains(out, "eco.submit") {
		t.Errorf("unsanitised name in exposition:\n%s", out)
	}
}

// An empty histogram must not emit quantile series (they would be NaN)
// but still expose _sum and _count so the series exists.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := New()
	r.BucketedHistogram("idle.latency.seconds")

	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	if strings.Contains(out, "quantile") {
		t.Errorf("empty histogram emitted quantiles:\n%s", out)
	}
	if !strings.Contains(out, "idle_latency_seconds_count 0\n") || !strings.Contains(out, "idle_latency_seconds_sum 0\n") {
		t.Errorf("empty histogram missing _sum/_count:\n%s", out)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"eco.submit.total": "eco_submit_total",
		"9lives":           "_lives",
		"ok_name:sub":      "ok_name:sub",
		"spaced out":       "spaced_out",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
