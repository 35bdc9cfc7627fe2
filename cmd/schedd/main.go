// Command schedd runs the scheduling daemon: a long-running HTTP/JSON
// service that owns a live cloud environment, takes whatever cloudlets are
// queued as a batch whenever a shard is free, maps each batch with a
// registered scheduler, and executes placements on a persistent broker.
//
// Usage:
//
//	schedd -scheduler aco -addr :8080
//
// Endpoints:
//
//	POST /v1/submit       {"length": 5000} or {"cloudlets": [...]}
//	GET  /v1/status/{id}  cloudlet lifecycle record
//	GET  /v1/schedulers   available algorithms
//	GET  /healthz         readiness (503 while draining)
//	GET  /metrics         Prometheus text format
//
// SIGINT/SIGTERM starts a graceful drain: admission stops (new submits get
// 503), the shards map what is queued, in-flight batches execute to
// completion, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bioschedsim/internal/cloud"
	"bioschedsim/internal/service"
	"bioschedsim/internal/workload"

	// Register the batch schedulers the daemon can serve.
	_ "bioschedsim/internal/aco"
	_ "bioschedsim/internal/ga"
	_ "bioschedsim/internal/hbo"
	_ "bioschedsim/internal/hybrid"
	_ "bioschedsim/internal/pso"
	_ "bioschedsim/internal/rbs"
)

// options collects every flag so run is testable end to end.
type options struct {
	addr         string
	scenario     string
	vms          int
	dcs          int
	seed         uint64
	drainTimeout time.Duration
	svc          service.Config
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	opt := &options{}
	fs.StringVar(&opt.addr, "addr", ":8080", "listen address (host:port)")
	fs.StringVar(&opt.scenario, "scenario", "heterogeneous", "fleet scenario: homogeneous | heterogeneous")
	fs.IntVar(&opt.vms, "vms", 50, "fleet size")
	fs.IntVar(&opt.dcs, "dcs", 4, "datacenters (heterogeneous only)")
	fs.Uint64Var(&opt.seed, "seed", 42, "root random seed for fleet generation")
	fs.DurationVar(&opt.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain bound on shutdown")
	fs.StringVar(&opt.svc.Scheduler, "scheduler", "aco", "mapping algorithm (see /v1/schedulers)")
	fs.IntVar(&opt.svc.BatchSize, "batch", service.DefaultBatchSize, "largest batch; a free shard maps whatever is queued, up to this many cloudlets")
	fs.IntVar(&opt.svc.QueueCap, "queue", service.DefaultQueueCap, "admission queue bound (429 beyond it)")
	fs.IntVar(&opt.svc.Shards, "shards", service.DefaultShards, "shard the fleet into this many independent engines with load-aware routing (1 = unsharded)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opt.svc.Seed = int64(opt.seed)
	return opt, nil
}

// buildEnv generates the daemon's fleet from the paper's scenario tables.
func buildEnv(opt *options) (*cloud.Environment, error) {
	var scn *workload.Scenario
	var err error
	switch opt.scenario {
	case "heterogeneous":
		scn, err = workload.Heterogeneous(opt.vms, 0, opt.dcs, opt.seed)
	case "homogeneous":
		scn, err = workload.Homogeneous(opt.vms, 0, opt.seed)
	default:
		return nil, fmt.Errorf("schedd: unknown scenario %q (want homogeneous or heterogeneous)", opt.scenario)
	}
	if err != nil {
		return nil, err
	}
	return scn.Env, nil
}

// Connection deadlines. A client gets readHeaderTimeout to send its request
// headers and readTimeout for the whole request, a 1 MiB submit body
// included; an idle keep-alive connection is closed after idleTimeout. Without
// them a client that trickles bytes (slowloris) holds a goroutine and a
// connection for ever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in a server with the
// connection deadlines above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run starts the daemon and blocks until ctx is cancelled, then drains. If
// ready is non-nil it receives the bound listen address once serving — the
// hook integration tests use to find an OS-assigned loopback port.
func run(ctx context.Context, opt *options, ready chan<- string) error {
	env, err := buildEnv(opt)
	if err != nil {
		return err
	}
	svc, err := service.New(env, opt.svc)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(svc.Handler())
	errC := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errC <- err
		}
	}()
	cfg := svc.Config()
	log.Printf("schedd: serving on %s (scheduler=%s vms=%d shards=%d batch=%d queue=%d)",
		ln.Addr(), cfg.Scheduler, opt.vms, cfg.Shards, cfg.BatchSize, cfg.QueueCap)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errC:
		return err
	case <-ctx.Done():
	}

	log.Printf("schedd: draining (timeout %v)", opt.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
	defer cancel()
	// Drain first so status polls keep working while batches finish, then
	// shut the listener down.
	drainErr := svc.Drain(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr == nil {
		log.Printf("schedd: drained cleanly")
	}
	return drainErr
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, nil); err != nil {
		log.Fatalf("schedd: %v", err)
	}
}
