package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startHTTP runs a daemon behind an httptest server.
func startHTTP(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := startService(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func TestHTTPSubmitSingleAndBatch(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base", BatchSize: 4})

	resp, body := postJSON(t, ts.URL+"/v1/submit", `{"length": 1500, "file_size": 300}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("single submit: %d %s", resp.StatusCode, body)
	}
	var single submitResponse
	if err := json.Unmarshal(body, &single); err != nil || len(single.IDs) != 1 {
		t.Fatalf("single submit response %s: %v", body, err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/submit",
		`{"cloudlets": [{"length": 1000}, {"length": 2000, "pes": 1}, {"length": 3000, "deadline": 100000}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d %s", resp.StatusCode, body)
	}
	var batch submitResponse
	if err := json.Unmarshal(body, &batch); err != nil || batch.Accepted != 3 {
		t.Fatalf("batch submit response %s: %v", body, err)
	}

	// Poll the last id to completion.
	last := batch.IDs[2]
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getBody(t, fmt.Sprintf("%s/v1/status/%d", ts.URL, last))
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		var rec StatusRecord
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State == StateFinished {
			if rec.VM < 0 {
				t.Fatalf("finished without VM: %+v", rec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cloudlet %d stuck: %+v", last, rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPSubmitRejectsMalformed(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base"})
	for name, body := range map[string]string{
		"not json":      `{`,
		"empty object":  `{}`,
		"zero length":   `{"length": 0}`,
		"bad field":     `{"length": 100, "bogus": 1}`,
		"empty batch":   `{"cloudlets": []}`,
		"negative":      `{"length": -4}`,
		"bad batch elt": `{"cloudlets": [{"length": 100}, {"length": -1}]}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/submit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d %s, want 400", name, resp.StatusCode, b)
		}
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	svc, ts := startHTTP(t, Config{Scheduler: "hold-plant", QueueCap: 4})
	occupy(t, svc, newHoldGate(t))
	resp, body := postJSON(t, ts.URL+"/v1/submit", `{"cloudlets": [{"length":1},{"length":1},{"length":1},{"length":1}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/submit", `{"length": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: got %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// A request larger than a shard's queue is 413 with no Retry-After: no
// retry could ever admit it.
func TestHTTPRequestLargerThanQueue413(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base", QueueCap: 4})
	resp, body := postJSON(t, ts.URL+"/v1/submit", `{"cloudlets": [{"length":1},{"length":1},{"length":1},{"length":1},{"length":1}]}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %d %s, want 413", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("413 carries Retry-After %q", ra)
	}
}

// submitBody renders n fully populated specs as one batch request.
func submitBody(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"cloudlets": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"length": %d.125, "pes": 1, "file_size": 300.5, "output_size": 300.5, "deadline": 86400.75}`, 1000+i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// The submit body is bounded: past maxSubmitBytes the request is 413
// before it is decoded, while a request of QueueCap specs at the default
// config fits under the bound and is accepted.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base"})

	full := submitBody(DefaultQueueCap)
	if len(full) >= maxSubmitBytes {
		t.Fatalf("a %d-spec body is %d bytes, over the %d-byte limit", DefaultQueueCap, len(full), maxSubmitBytes)
	}
	resp, body := postJSON(t, ts.URL+"/v1/submit", full)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("QueueCap-sized request: got %d %.200s, want 202", resp.StatusCode, body)
	}

	// Whitespace is valid JSON, so only the byte bound can refuse this.
	oversized := `{"length": 1` + strings.Repeat(" ", maxSubmitBytes) + `}`
	resp, body = postJSON(t, ts.URL+"/v1/submit", oversized)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d %s, want 413", resp.StatusCode, body)
	}
}

func TestHTTPStatusNotFoundAndBadID(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base"})
	if code, _ := getBody(t, ts.URL+"/v1/status/99999"); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/status/xyz"); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d, want 400", code)
	}
}

func TestHTTPHealthzFlipsOnDrain(t *testing.T) {
	svc, ts := startHTTP(t, Config{Scheduler: "base"})
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthy daemon: %d", code)
	}
	drain(t, svc)
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon: %d, want 503", code)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/submit", `{"length": 100}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

func TestHTTPSchedulersEndpoint(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "online-eft"})
	code, body := getBody(t, ts.URL+"/v1/schedulers")
	if code != http.StatusOK {
		t.Fatalf("schedulers: %d", code)
	}
	var got struct {
		Active string   `json:"active"`
		Batch  []string `json:"batch"`
		Online []string `json:"online"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got.Active != "online-eft" || len(got.Batch) == 0 || len(got.Online) == 0 {
		t.Fatalf("schedulers payload: %+v", got)
	}
}

func TestHTTPMetricsSurface(t *testing.T) {
	svc, ts := startHTTP(t, Config{Scheduler: "base", BatchSize: 8})
	if _, err := svc.Submit(specN(8)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, series := range []string{
		"schedd_submitted_total 8",
		"schedd_finished_total 8",
		"schedd_queue_depth 0",
		"schedd_batch_sim_time_seconds",
		"schedd_batch_imbalance",
		`schedd_scheduling_seconds_count{scheduler="base"} 1`,
		"schedd_batch_size_bucket",
		"# TYPE schedd_scheduling_seconds histogram",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics output missing %q:\n%s", series, body)
		}
	}
}

// TestHTTPShardedBackpressureAndStatus is the sharded end-to-end test: a
// saturated shard answers 429 + Retry-After while the rest of the fleet
// stays below its per-shard cap, and /v1/status/{id} round-trips records
// for cloudlets living on every shard.
func TestHTTPShardedBackpressureAndStatus(t *testing.T) {
	svc, ts := startHTTP(t, Config{Scheduler: "hold-plant", Shards: 2, QueueCap: 4})
	occupy(t, svc, newHoldGate(t))

	// One heavy cloudlet claims a shard; the dispatcher then steers every
	// light cloudlet to the other shard until its gate fills.
	resp, body := postJSON(t, ts.URL+"/v1/submit", `{"length": 1e12}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("heavy submit: %d %s", resp.StatusCode, body)
	}
	var heavy submitResponse
	if err := json.Unmarshal(body, &heavy); err != nil {
		t.Fatal(err)
	}
	_, heavyBody := getBody(t, fmt.Sprintf("%s/v1/status/%d", ts.URL, heavy.IDs[0]))
	var heavyRec StatusRecord
	if err := json.Unmarshal([]byte(heavyBody), &heavyRec); err != nil {
		t.Fatal(err)
	}
	lightShard := 1 - heavyRec.Shard

	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/submit", `{"length": 1}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("light submit %d: %d %s", i, resp.StatusCode, body)
		}
		var acc submitResponse
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		_, sb := getBody(t, fmt.Sprintf("%s/v1/status/%d", ts.URL, acc.IDs[0]))
		var rec StatusRecord
		if err := json.Unmarshal([]byte(sb), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Shard != lightShard {
			t.Fatalf("light cloudlet %d reported shard %d over HTTP, want %d", i, rec.Shard, lightShard)
		}
	}

	// Five cloudlets sit admitted against a per-shard cap of 4 — under a
	// single global gate the fifth could never have been accepted — and the
	// saturated shard now refuses with 429 even though the heavy shard has
	// three slots free.
	resp, body = postJSON(t, ts.URL+"/v1/submit", `{"length": 1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated shard: got %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := svc.shards[heavyRec.Shard].adm.depth(); got != 1 {
		t.Fatalf("heavy shard depth %v, want 1 — backpressure leaked across shards", got)
	}
}

func TestHTTPShardedStatusEveryShard(t *testing.T) {
	_, ts := startHTTP(t, Config{Scheduler: "base", Shards: 2, BatchSize: 8})
	resp, body := postJSON(t, ts.URL+"/v1/submit",
		`{"cloudlets": [`+strings.Repeat(`{"length": 1000},`, 39)+`{"length": 1000}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var acc submitResponse
	if err := json.Unmarshal(body, &acc); err != nil || acc.Accepted != 40 {
		t.Fatalf("submit response %s: %v", body, err)
	}
	served := map[int]int{}
	deadline := time.Now().Add(15 * time.Second)
	for _, id := range acc.IDs {
		for {
			code, sb := getBody(t, fmt.Sprintf("%s/v1/status/%d", ts.URL, id))
			if code != http.StatusOK {
				t.Fatalf("status %d: %d %s", id, code, sb)
			}
			var rec StatusRecord
			if err := json.Unmarshal([]byte(sb), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.State == StateFinished {
				served[rec.Shard]++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cloudlet %d stuck: %+v", id, rec)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if len(served) != 2 {
		t.Fatalf("status round-trips cover shards %v, want both", served)
	}
}
