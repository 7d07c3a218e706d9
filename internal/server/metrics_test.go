package server

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestMetricsRender(t *testing.T) {
	m := NewMetrics()
	m.Observe("/v1/schedule", 200, 0.01)
	m.Observe("/v1/schedule", 200, 0.02)
	m.Observe("/v1/schedule", 400, 0.001)
	m.Observe("/v1/latency", 200, 1.5)
	m.Gauge("rayschedd_queue_depth", func() float64 { return 3 })

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		`rayschedd_requests_total{endpoint="/v1/schedule",code="200"} 2`,
		`rayschedd_requests_total{endpoint="/v1/schedule",code="400"} 1`,
		`rayschedd_requests_total{endpoint="/v1/latency",code="200"} 1`,
		`rayschedd_request_duration_seconds_count{endpoint="/v1/schedule"} 3`,
		`rayschedd_request_duration_seconds_bucket{endpoint="/v1/latency",le="+Inf"} 1`,
		`rayschedd_queue_depth 3`,
		"# TYPE rayschedd_requests_total counter",
		"# TYPE rayschedd_request_duration_seconds histogram",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	// Observations clamped into the domain still land in buckets: one far
	// below the 1µs floor, one far above the 100s ceiling.
	m.Observe("/x", 200, 1e-9)
	m.Observe("/x", 200, 1e9)
	var sb strings.Builder
	m.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, `rayschedd_request_duration_seconds_bucket{endpoint="/x",le="+Inf"} 2`) {
		t.Fatalf("+Inf bucket must count every observation:\n%s", out)
	}
	if !strings.Contains(out, `rayschedd_request_duration_seconds_count{endpoint="/x"} 2`) {
		t.Fatalf("count series wrong:\n%s", out)
	}
}

// TestQuantileSeries: the p50/p95/p99 gauges derived from the latency
// histograms. Values are bucket-resolution (the log-spaced buckets span a
// quarter decade), so the assertions use generous factor bounds rather than
// exact equality.
func TestQuantileSeries(t *testing.T) {
	m := NewMetrics()
	var sb strings.Builder
	m.WriteTo(&sb)
	if strings.Contains(sb.String(), "rayschedd_request_duration_quantile") {
		t.Fatalf("quantile series rendered with no observations:\n%s", sb.String())
	}

	// 100 requests at ~10ms and 10 stragglers at ~1s: the median must sit in
	// the 10ms region and the p99 in the 1s region.
	for i := 0; i < 100; i++ {
		m.Observe("/v1/estimate", 200, 0.01)
	}
	for i := 0; i < 10; i++ {
		m.Observe("/v1/estimate", 200, 1.0)
	}
	sb.Reset()
	m.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, "# TYPE rayschedd_request_duration_quantile gauge") {
		t.Fatalf("quantile type header missing:\n%s", out)
	}
	q := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `rayschedd_request_duration_quantile{endpoint="/v1/estimate"`) {
			continue
		}
		var quant string
		var v float64
		if _, err := fmt.Sscanf(line, `rayschedd_request_duration_quantile{endpoint="/v1/estimate",quantile=%q} %g`, &quant, &v); err != nil {
			t.Fatalf("unparsable quantile line %q: %v", line, err)
		}
		q[quant] = v
	}
	if len(q) != 3 {
		t.Fatalf("got quantiles %v, want 0.5/0.95/0.99", q)
	}
	if q["0.5"] < 0.003 || q["0.5"] > 0.03 {
		t.Fatalf("p50 = %g, want ~0.01", q["0.5"])
	}
	if q["0.99"] < 0.3 || q["0.99"] > 3 {
		t.Fatalf("p99 = %g, want ~1.0", q["0.99"])
	}
	if !(q["0.5"] <= q["0.95"] && q["0.95"] <= q["0.99"]) {
		t.Fatalf("quantiles not monotone: %v", q)
	}
}

// TestBuildInfoRendersOnlyWhenSet: bare Metrics (no SetBuildInfo) must not
// emit the build_info series, so outputs recorded before the gauge existed
// stay byte-identical.
func TestBuildInfoRendersOnlyWhenSet(t *testing.T) {
	m := NewMetrics()
	var sb strings.Builder
	m.WriteTo(&sb)
	if strings.Contains(sb.String(), "rayschedd_build_info") {
		t.Fatalf("build_info rendered without SetBuildInfo:\n%s", sb.String())
	}
	m.SetBuildInfo("1.2.3", "abcd", 8)
	sb.Reset()
	m.WriteTo(&sb)
	if !strings.Contains(sb.String(), `rayschedd_build_info{version="1.2.3",instance="abcd",gomaxprocs="8"} 1`) {
		t.Fatalf("build_info missing after SetBuildInfo:\n%s", sb.String())
	}
}

func TestMetricsDeterministicOrder(t *testing.T) {
	m := NewMetrics()
	m.Observe("/b", 200, 0.1)
	m.Observe("/a", 200, 0.1)
	var s1, s2 strings.Builder
	m.WriteTo(&s1)
	m.WriteTo(&s2)
	if s1.String() != s2.String() {
		t.Fatal("non-deterministic render")
	}
	if strings.Index(s1.String(), `endpoint="/a"`) > strings.Index(s1.String(), `endpoint="/b"`) {
		t.Fatal("endpoints not sorted")
	}
}

// TestMetricsTextPinned pins the whole Prometheus page for a fixed sequence
// of observations: both histograms (request duration and queue wait) with
// clamped, zero and in-range values, the quantile gauges and the shed
// counter. Scrapers parse this text, so testdata/metrics.golden.txt changes
// only with an intended format change.
func TestMetricsTextPinned(t *testing.T) {
	m := NewMetrics()
	m.Observe("/v1/schedule", 200, 0.0123)
	m.Observe("/v1/schedule", 200, 0.25)
	m.Observe("/v1/schedule", 400, 0)
	m.Observe("/v1/estimate", 200, 3e-7)
	m.Observe("/v1/estimate", 504, 250)
	m.ObserveQueueWait("/v1/estimate", 0.004)
	m.ObserveQueueWait("/v1/estimate", 0)
	m.ObserveShed("/v1/schedule")
	m.ObserveShed("/v1/schedule")
	want, err := os.ReadFile("testdata/metrics.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	n, err := m.WriteTo(&got)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("/metrics text changed:\n%s\nwant:\n%s", got.String(), want)
	}
	if n != int64(len(want)) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(want))
	}
}
