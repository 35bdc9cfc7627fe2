package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startDaemon boots the full daemon on an OS-assigned loopback port and
// returns its base URL plus a shutdown function that triggers the graceful
// drain and waits for run to exit.
func startDaemon(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	opt, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errC := make(chan error, 1)
	go func() { errC <- run(ctx, opt, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errC:
		t.Fatalf("daemon died before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	stopped := false
	stop := func() error {
		stopped = true
		cancel()
		select {
		case err := <-errC:
			return err
		case <-time.After(60 * time.Second):
			return fmt.Errorf("drain timed out")
		}
	}
	t.Cleanup(func() {
		if !stopped {
			_ = stop()
		}
	})
	return "http://" + addr, stop
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts a single-sample series value from Prometheus text.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in:\n%s", name, body)
	return 0
}

// TestScheddEndToEnd boots the daemon on a loopback port, submits a
// heterogeneous batch over HTTP, polls /v1/status to completion, and
// asserts the /metrics gauges moved.
func TestScheddEndToEnd(t *testing.T) {
	base, stop := startDaemon(t,
		"-scheduler", "hbo", "-vms", "8", "-dcs", "2",
		"-batch", "10")

	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	_, before := httpGet(t, base+"/metrics")
	if v := metricValue(t, before, "schedd_finished_total"); v != 0 {
		t.Fatalf("fresh daemon already finished %v cloudlets", v)
	}

	// A deliberately heterogeneous batch: long and short cloudlets, multi-PE
	// work, deadline-bearing work.
	body := `{"cloudlets": [
		{"length": 18000, "file_size": 300, "output_size": 300},
		{"length": 1200},
		{"length": 9000, "pes": 2},
		{"length": 4000, "deadline": 1000000},
		{"length": 15000}, {"length": 2500}, {"length": 7000},
		{"length": 11000}, {"length": 600}, {"length": 19500}
	]}`
	resp, err := http.Post(base+"/v1/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		IDs []int `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(ack.IDs) != 10 {
		t.Fatalf("submit: %d, ids %v", resp.StatusCode, ack.IDs)
	}

	// Poll every cloudlet's lifecycle to completion.
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ack.IDs {
		for {
			code, body := httpGet(t, fmt.Sprintf("%s/v1/status/%d", base, id))
			if code != http.StatusOK {
				t.Fatalf("status %d: %d %s", id, code, body)
			}
			var rec struct {
				State string  `json:"state"`
				VM    int     `json:"vm"`
				Exec  float64 `json:"exec_seconds"`
			}
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.State == "finished" {
				if rec.VM < 0 || rec.Exec <= 0 {
					t.Fatalf("cloudlet %d degenerate: %s", id, body)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cloudlet %d stuck in %q", id, rec.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The observability surface must have moved.
	_, after := httpGet(t, base+"/metrics")
	if v := metricValue(t, after, "schedd_finished_total"); v != 10 {
		t.Fatalf("finished_total = %v, want 10", v)
	}
	if v := metricValue(t, after, "schedd_submitted_total"); v != 10 {
		t.Fatalf("submitted_total = %v, want 10", v)
	}
	if v := metricValue(t, after, "schedd_batch_sim_time_seconds"); v <= 0 {
		t.Fatalf("Eq. 12 gauge never moved: %v", v)
	}
	if !strings.Contains(after, `schedd_scheduling_seconds_bucket{scheduler="hbo"`) {
		t.Fatalf("per-scheduler histogram missing:\n%s", after)
	}

	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
}

// TestScheddSIGTERMDrains delivers a real SIGTERM to the process right
// after its work is accepted and asserts the daemon drains instead of
// dropping it: run exits nil, which requires every batch — including one
// still queued or mapping — to have executed to completion. (Per-cloudlet terminal
// states are asserted at the service layer in internal/service.)
func TestScheddSIGTERMDrains(t *testing.T) {
	opt, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-scheduler", "base",
		"-vms", "6", "-batch", "50",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The same signal wiring main uses; scoped so other tests are immune.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stopSignals()
	ready := make(chan string, 1)
	errC := make(chan error, 1)
	go func() { errC <- run(ctx, opt, ready) }()
	base := "http://" + <-ready

	resp, err := http.Post(base+"/v1/submit", "application/json",
		strings.NewReader(`{"cloudlets": [{"length": 5000}, {"length": 8000}, {"length": 3000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		IDs []int `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ack.IDs) != 3 {
		t.Fatalf("accepted %v", ack.IDs)
	}

	// SIGTERM at once, while the batch may still be queued or mapping.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestHTTPServerHasDeadlines: the daemon's server must bound how long a
// client may take over its headers, its request and an idle keep-alive.
func TestHTTPServerHasDeadlines(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server deadlines header=%v read=%v idle=%v; all must be positive",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}

// TestNegativeFleetIsAnError: a negative -vms is an error from the
// workload generators before anything listens, not a makeslice panic.
func TestNegativeFleetIsAnError(t *testing.T) {
	for _, args := range [][]string{{"-vms", "-1"}, {"-scenario", "homogeneous", "-vms", "-1"}} {
		opt, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), opt, nil); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%v: got %v, want a negative-count error", args, err)
		}
	}
}
