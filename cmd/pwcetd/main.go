// Command pwcetd is the long-lived pWCET analysis service: it owns a
// distributed campaign fabric (in-process executors, plus optionally a
// TCP listener remote executors join) and serves the campaign HTTP API
// — submit a spec, poll status, fetch the report and cached pWCET
// quantiles, scrape per-campaign telemetry at /metrics.
//
//	pwcetd -addr :8227                        # coordinator + API
//	pwcetd -addr :8227 -executor-listen :8228 # also accept remote executors
//	pwcetd -join host:8228                    # run as a remote executor
//
//	curl -X POST localhost:8227/api/v1/campaigns \
//	  -d '{"workload":{"kind":"tvca"},"runs":3000,"base_seed":42}'
//	curl -X POST localhost:8227/api/v1/campaigns \
//	  -d '{"workload":{"kind":"tvca"},"fault_rate":0.5,"mitigation":"ecc","hazard":"weibull"}'
//	curl localhost:8227/api/v1/campaigns/c000001
//	curl 'localhost:8227/api/v1/campaigns/c000001/pwcet?q=1e-12'
//
// Exit codes follow the shared CLI contract: 0 = clean shutdown
// (SIGINT/SIGTERM), 1 = usage or I/O error. All errors go to stderr
// only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/fabric"
	"repro/internal/pwcetd"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process-global edges injected; it serves until
// ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pwcetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8227", "HTTP API listen address")
		execListen  = fs.String("executor-listen", "", "also accept remote fabric executors on this TCP address (optional)")
		join        = fs.String("join", "", "run as a remote executor of the coordinator at this address instead of serving")
		executors   = fs.Int("executors", 0, "in-process executor workers (0 = GOMAXPROCS; negative = remote-only: campaigns remote executors cannot serve, such as fault-injected or run-cached ones, still run in-process)")
		maxSess     = fs.Int("max-sessions", 0, "concurrent campaigns admitted before submissions queue (0 = default 256)")
		sessLeases  = fs.Int("session-leases", 0, "outstanding leases per campaign (0 = default 4)")
		leaseTO     = fs.Duration("lease-timeout", 30*time.Second, "re-queue a lease stuck on one executor after this long (0 disables)")
		matrixCache = fs.String("matrix-cache", "", "directory for the content-addressed matrix run cache (empty disables caching)")
		qgate       = fs.Bool("quantile-gate", false, "screen every submitted campaign with the nine-decile identical-distribution gate")
		qgateAlpha  = fs.Float64("quantile-alpha", 0.01, "family-wise false-positive budget of -quantile-gate")
	)
	if err := fs.Parse(args); err != nil {
		return cliflags.ExitError // usage already printed to stderr
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pwcetd:", err)
		return cliflags.ExitCodeFor(err)
	}

	if *join != "" {
		// Executor mode: no service, no pool — just lease execution for
		// a remote coordinator until the connection drops or we're told
		// to stop.
		fmt.Fprintf(stdout, "pwcetd: joining coordinator %s as a remote executor\n", *join)
		err := fabric.RunExecutor(ctx, *join, nil)
		if err == nil || ctx.Err() != nil {
			return cliflags.ExitOK
		}
		return fail(err)
	}

	pool := fabric.NewPool(fabric.Config{
		Executors:     *executors,
		MaxSessions:   *maxSess,
		SessionLeases: *sessLeases,
		LeaseTimeout:  *leaseTO,
	})
	defer pool.Close()

	if *execListen != "" {
		eln, err := net.Listen("tcp", *execListen)
		if err != nil {
			return fail(err)
		}
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			_ = pool.ServeExecutors(eln) // returns when the listener closes
		}()
		defer func() { eln.Close(); <-serveDone }()
		fmt.Fprintf(stdout, "pwcetd: accepting remote executors on %s\n", eln.Addr())
	}

	svc, err := pwcetd.New(pwcetd.Config{
		Pool:           pool,
		MatrixCacheDir: *matrixCache,
		QuantileGate:   *qgate,
		QuantileAlpha:  *qgateAlpha,
	})
	if err != nil {
		return fail(err)
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "pwcetd: serving pWCET analysis API on http://%s\n", ln.Addr())

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fail(err)
		}
		return cliflags.ExitOK
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return cliflags.ExitOK
		}
		return fail(err)
	}
}
