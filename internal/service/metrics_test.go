// Observability contracts of the HTTP front end: the /metrics
// Prometheus exposition and the per-job span stream.
package service

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"subcache/internal/telemetry"
)

// TestServiceMetricsEndpoint scrapes /metrics after a real sweep and
// holds it to the strict exposition grammar, with the service-level
// latency histograms present and coherent.
func TestServiceMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	if code, resp := post(t, ts, smallRequest(4000), true); code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, resp.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, telemetry.PromContentType)
	}
	st, err := telemetry.ValidatePromText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics fails strict validation: %v\n%s", err, body)
	}
	if st.Samples == 0 {
		t.Fatal("/metrics served an empty exposition")
	}
	for _, want := range []string{
		"sweepd_build_info{",
		"# TYPE sweepd_job_queue_wait_seconds histogram",
		"sweepd_job_queue_wait_seconds_bucket",
		"# TYPE sweepd_job_execution_seconds histogram",
		"sweepd_requests_admitted_total 1",
		"sweepd_workers 2",
		"\nsweepd_queue_depth 0\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each fact is exported once: stage time only as the stage
	// histograms, the queue depth only as its gauge.
	for _, dup := range []string{"stage_seconds_total", "stage_observations_total", "checkpoint_records_total", "queued_jobs"} {
		if strings.Contains(string(body), dup) {
			t.Errorf("/metrics exports duplicate %q", dup)
		}
	}
}

// TestServiceStatsCarriesVersionAndHists: /v1/stats reports the build
// version and the histogram snapshots the load harness consumes, with
// no second copy of stage time.
func TestServiceStatsCarriesVersionAndHists(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code, resp := post(t, ts, smallRequest(4000), true); code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, resp.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Version   string              `json:"version"`
		Telemetry *telemetry.Snapshot `json:"telemetry"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	for _, dup := range []string{`"stages_ms"`, `"stages_n"`} {
		if strings.Contains(string(body), dup) {
			t.Errorf("/v1/stats carries %s beside the stage histograms", dup)
		}
	}
	if stats.Version == "" {
		t.Error("/v1/stats missing version")
	}
	if stats.Telemetry == nil {
		t.Fatal("/v1/stats missing telemetry snapshot")
	}
	for _, h := range []telemetry.Hist{telemetry.HistQueueWait, telemetry.HistExecution, telemetry.HistJobLatency} {
		hs := stats.Telemetry.Hist(h)
		if hs == nil || hs.Count == 0 {
			t.Errorf("histogram %s absent or empty after a completed job", h)
		}
	}
}

// TestServiceJobStreamHasSpans: a completed job's event stream carries
// the span lifecycle and passes full stream validation (nesting,
// point-done reconciliation) -- the same check eventcheck -spans runs.
func TestServiceJobStreamHasSpans(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	code, sub := post(t, ts, smallRequest(4000), true)
	if code != http.StatusOK {
		t.Fatalf("submit: code %d (%s)", code, sub.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.ValidateStream(strings.NewReader(string(stream)))
	if err != nil {
		t.Fatalf("job stream invalid: %v", err)
	}
	if st.ByType[telemetry.EventSpanStart] == 0 ||
		st.ByType[telemetry.EventSpanStart] != st.ByType[telemetry.EventSpanEnd] {
		t.Fatalf("span events unbalanced: start=%d end=%d",
			st.ByType[telemetry.EventSpanStart], st.ByType[telemetry.EventSpanEnd])
	}
	// The job lifecycle spans must be present and trace-stamped.
	for _, name := range []string{`"name":"job"`, `"name":"queue"`, `"name":"attempt"`, `"name":"cache-write"`, `"trace":"` + sub.ID + `"`} {
		if !strings.Contains(string(stream), name) {
			t.Errorf("job stream missing %s", name)
		}
	}
}
